package main

import (
	"math/rand/v2"
	"runtime"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by 2× and more
// within minutes: neighbours load the same cores, caches and memory, and
// the process's CPU time inflates with its wall time. No average over one
// run removes a drift that lasts the whole run, so host times are
// reported against a fixed reference computation, timed before the first
// trial and after every trial. The reference uses none of rackfab's code,
// so a change to the program moves the trials and not the reference.

// refCalib fixes the reference host: one on which calibState.work takes
// 50 ms, near the fastest it ran on a shared 2.1 GHz Xeon vCPU. A mean
// host time t from a run whose calibrations take c on average is reported
// as t × refCalib / c, in seconds of that reference host. The figure is a
// unit, not a measurement: changing it rescales every host time.
const refCalib = 50 * time.Millisecond

// calibrate times the calibration's work once, after a full collection so
// that no garbage-collector work left by a trial overlaps the timing.
func calibrate() time.Duration {
	runtime.GC()
	cs := newCalibState()
	start := clock()
	cs.work()
	return clock().Sub(start)
}

const (
	calibNodes  = 1 << 18 // vertices of the searched graph, degree 4
	calibEvents = 1 << 17 // events pushed through the heap
	calibLinks  = 1 << 15 // links of the water-filling passes
)

type calibEvent struct {
	at uint64
	id int32
}

// calibState holds the calibration's buffers, made before the clock starts
// so that the timed work allocates next to nothing and does not depend on
// the garbage collector's state after a trial.
type calibState struct {
	adj, dist, queue []int32
	heap             []calibEvent
	capacity, load   []float64
}

func newCalibState() *calibState {
	cs := &calibState{
		adj:      make([]int32, 4*calibNodes),
		dist:     make([]int32, calibNodes),
		queue:    make([]int32, 0, calibNodes),
		heap:     make([]calibEvent, 0, calibEvents),
		capacity: make([]float64, calibLinks),
		load:     make([]float64, calibLinks),
	}
	// Write every page now, so that page faults stay outside the timing.
	clear(cs.adj)
	clear(cs.dist)
	clear(cs.queue[:cap(cs.queue)])
	clear(cs.heap[:cap(cs.heap)])
	clear(cs.capacity)
	clear(cs.load)
	return cs
}

// work is a fixed mix of the kinds of work the simulator does:
// breadth-first search over a sparse graph (route builds), a binary heap
// of timed events (the event engine) and float passes of a water-filling
// shape (the fluid solver). It writes every buffer before reading it, and
// returns a checksum that is the same on every call.
func (cs *calibState) work() uint64 {
	rng := rand.New(rand.NewPCG(1, 2))
	var sum uint64

	// Breadth-first search over a random graph of degree 4.
	for i := range cs.adj {
		cs.adj[i] = int32(rng.IntN(calibNodes))
	}
	for src := int32(0); src < 4; src++ {
		for i := range cs.dist {
			cs.dist[i] = -1
		}
		cs.dist[src] = 0
		queue := append(cs.queue[:0], src)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, v := range cs.adj[4*u : 4*u+4] {
				if cs.dist[v] < 0 {
					cs.dist[v] = cs.dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range cs.dist {
			sum += uint64(d + 1)
		}
	}

	// Push timed events through a binary min-heap, popping the earliest
	// once it holds 8192.
	heap := cs.heap[:0]
	for i := int32(0); i < calibEvents; i++ {
		heap = append(heap, calibEvent{at: rng.Uint64() >> 20, id: i})
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if heap[p].at <= heap[c].at {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
		if len(heap) < 1<<13 {
			continue
		}
		sum += uint64(heap[0].id)
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for p := 0; ; {
			c := 2*p + 1
			if c >= last {
				break
			}
			if c+1 < last && heap[c+1].at < heap[c].at {
				c++
			}
			if heap[p].at <= heap[c].at {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			p = c
		}
	}

	// Water-filling passes: share the spare capacity, saturate the
	// tightest link, repeat.
	for i := range cs.capacity {
		cs.capacity[i] = 1 + rng.Float64()
		cs.load[i] = float64(1 + rng.IntN(8))
	}
	for pass := 0; pass < 24; pass++ {
		share := cs.capacity[0] / cs.load[0]
		for i := range cs.capacity {
			if s := cs.capacity[i] / cs.load[i]; s < share {
				share = s
			}
		}
		for i := range cs.capacity {
			cs.capacity[i] -= share * cs.load[i]
			if cs.capacity[i] < 1e-9 {
				cs.capacity[i] = 1 + float64(pass)
			}
		}
	}
	for _, x := range cs.capacity {
		sum += uint64(x * 1e6)
	}
	return sum
}
