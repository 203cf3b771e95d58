package fluid

import (
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// FuzzSolverMaxMin drives the solver over fuzzer-chosen topologies and
// workloads through a random interleaving of arrivals, completions, and
// link capacity ops (down / up / degrade — the fault subsystem's whole
// event vocabulary) and asserts, after every event:
//
//  1. the max-min certificate — the allocation is feasible and every active
//     flow is bottlenecked at a saturated link where no flow is faster,
//     with rate 0 legal only behind a dead link (checkMaxMin), and
//  2. warm start ≡ cold start — the warm engine's rate vector equals a
//     from-zero re-solve's bit for bit, and the two engines' completion
//     schedules never diverge (churnEngines compares nextDone each event).
//
// The walk runs twice: once one arrival at a time, once with same-instant
// arrival bursts that the warm engine takes as one batch and the cold
// engine one flow at a time, so (2) also holds batch ≡ sequential arrival,
// bursts onto dead and rerouted paths included.
//
// On top of the stepwise engines, the whole scenario runs through Run twice
// (warm and cold) and must fingerprint identically — first fault-free, then
// under a Poisson link-flap schedule that exercises mid-run rerouting,
// starvation, and repair end to end. The committed seed corpus under
// testdata/fuzz/FuzzSolverMaxMin keeps the interesting shapes (tie-heavy
// permutations, elephants-and-mice, line bottlenecks, flap-through-load
// walks) in every plain `go test` run; `go test -fuzz FuzzSolverMaxMin`
// explores further.
func FuzzSolverMaxMin(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4))
	f.Add(int64(7), uint8(1), uint8(1), uint8(16))
	f.Add(int64(23), uint8(2), uint8(2), uint8(30))
	f.Add(int64(99), uint8(1), uint8(2), uint8(40))
	f.Add(int64(-5235746606184552251), uint8(2), uint8(2), uint8(38))
	// Capacity-churn shapes: a line (every down partitions), a dense torus
	// walk, and a grid whose walk mixes degrades with heavy arrival churn.
	f.Add(int64(4242), uint8(0), uint8(0), uint8(12))
	f.Add(int64(-77), uint8(2), uint8(3), uint8(44))
	f.Add(int64(31337), uint8(1), uint8(2), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, topoKind, sideRaw, flowsRaw uint8) {
		side := 2 + int(sideRaw)%4
		flows := 2 + int(flowsRaw)%48
		var g *topo.Graph
		switch topoKind % 3 {
		case 0:
			g = topo.NewLine(side*side, topo.Options{})
		case 1:
			g = topo.NewGrid(side, side, topo.Options{})
		default:
			g = topo.NewTorus(side, side, topo.Options{})
		}
		n := g.NumNodes()
		rng := sim.NewRNG(seed)
		specs := make([]workload.FlowSpec, 0, flows)
		for len(specs) < flows {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			// Mix exact ties (identical sizes) with ragged sizes so both
			// tie-heavy closures and irregular schedules get exercised.
			bytes := int64(250e3)
			if rng.Intn(2) == 1 {
				bytes = 50e3 + int64(rng.Intn(1e6))
			}
			specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Bytes: bytes})
		}

		sameRates := func(warm, cold *engine) {
			for fid := range warm.flows {
				w, c := warm.flows[fid].rate, cold.flows[fid].rate
				if w != c {
					t.Fatalf("flow %d: warm rate %g != cold rate %g", fid, w, c)
				}
			}
			checkMaxMin(t, warm)
		}
		churnEngines(t, g, specs, rng, churnOps{faults: true}, sameRates)
		// The same walk shape with same-instant arrival bursts, from an RNG
		// of its own so the draws below match the burst-free walk's.
		churnEngines(t, g, specs, sim.NewRNG(seed).Split("bursts"), churnOps{faults: true, bursts: true}, sameRates)

		for i := range specs {
			specs[i].At = sim.Time(rng.Intn(200)) * sim.Time(sim.Microsecond)
		}
		warmRun, err := Run(Config{Graph: g}, specs)
		if err != nil {
			t.Fatal(err)
		}
		coldRun, err := Run(Config{Graph: g, coldStart: true}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(warmRun) != fingerprint(coldRun) {
			t.Fatalf("Run diverged between warm and cold start:\n--- warm ---\n%s\n--- cold ---\n%s",
				fingerprint(warmRun), fingerprint(coldRun))
		}

		// Same scenario under a Poisson flap schedule: every outage heals,
		// so the run completes, and warm ≡ cold must survive the mid-run
		// rerouting, starvation, and repair the flaps force.
		sched := faults.PoissonFlaps(rng, g, faults.FlapConfig{
			Flaps:      3,
			MeanGap:    60 * sim.Microsecond,
			MeanOutage: 80 * sim.Microsecond,
		})
		warmFlap, err := Run(Config{Graph: g, Faults: sched}, specs)
		if err != nil {
			t.Fatal(err)
		}
		coldFlap, err := Run(Config{Graph: g, Faults: sched, coldStart: true}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(warmFlap) != fingerprint(coldFlap) {
			t.Fatalf("faulted Run diverged between warm and cold start:\n--- warm ---\n%s\n--- cold ---\n%s",
				fingerprint(warmFlap), fingerprint(coldFlap))
		}
	})
}
