package sim

import (
	"math/rand"
	"testing"
)

// TestCalendarHeapByteIdentical drives the binary heap (the engine's
// previous future-event list, kept as the reference implementation) and
// the calendar queue side by side over fuzzer-driven schedule / cancel /
// limited-pop sequences — same-tick bursts, near-term rolling windows,
// far-future outliers that force the sparse fallback, floods that force
// wheel resizes, and a bimodal phase (a dense window whose spacing shifts,
// next to far timers that are cancelled and re-armed) that forces
// cost-triggered recalibrations — and asserts the two pop byte-identical
// (at, seq) sequences. (at, seq) is a unique total order, so identical
// sequences mean identical event ordering in every model run.
func TestCalendarHeapByteIdentical(t *testing.T) {
	// -short (the race pass) keeps the differential but trims the seed ×
	// ops budget: race instrumentation multiplies the cost ~10x and three
	// seeds still cross every queue regime (resize, sparse fallback).
	seeds, ops := int64(8), 2500
	if testing.Short() {
		seeds, ops = 3, 1200
	}
	for seed := int64(1); seed <= seeds; seed++ {
		runCalendarDiff(t, seed, ops)
	}
}

func runCalendarDiff(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var heap eventQueue
	var cal calendarQueue
	cal.init(calMinBuckets)

	type pair struct{ h, c *event }
	var live []pair
	slot := make(map[uint64]int) // seq → index in live
	seq := uint64(0)
	now := Time(0)

	schedule := func(at Time) {
		h := &event{at: at, seq: seq}
		c := &event{at: at, seq: seq}
		heap.push(h)
		cal.push(c)
		slot[seq] = len(live)
		live = append(live, pair{h, c})
		seq++
	}
	dropLive := func(i int) {
		delete(slot, live[i].c.seq)
		last := len(live) - 1
		if i != last {
			live[i] = live[last]
			slot[live[i].c.seq] = i
		}
		live = live[:last]
	}
	pop := func(limit Time) {
		c := cal.popAtMost(limit)
		var h *event
		if heap.len() > 0 && heap.items[0].at <= limit {
			h = heap.pop()
		}
		if (c == nil) != (h == nil) {
			t.Fatalf("seed %d: heap/calendar emptiness diverged at limit %v (heap nil=%v cal nil=%v)",
				seed, limit, h == nil, c == nil)
		}
		if c == nil {
			return
		}
		if c.at != h.at || c.seq != h.seq {
			t.Fatalf("seed %d: ordering diverged: heap popped (at=%v seq=%d), calendar popped (at=%v seq=%d)",
				seed, h.at, h.seq, c.at, c.seq)
		}
		if c.at < now {
			t.Fatalf("seed %d: calendar popped %v after %v — time went backwards", seed, c.at, now)
		}
		now = c.at
		dropLive(slot[c.seq])
	}

	randomAt := func() Time {
		switch rng.Intn(10) {
		case 0, 1: // same tick
			return now
		case 2, 3, 4, 5: // the rolling near-term window packet models live in
			return now + Time(rng.Int63n(20_000))
		case 6, 7, 8: // microsecond-scale timeouts
			return now + Time(rng.Int63n(5_000_000))
		default: // far future: seconds away, forces the sparse fallback
			return now + Time(rng.Int63n(2_000_000_000_000))
		}
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 40: // schedule, occasionally a same-tick burst
			at := randomAt()
			schedule(at)
			if rng.Intn(8) == 0 {
				for k := rng.Intn(12); k > 0; k-- {
					schedule(at)
				}
			}
		case r < 45: // flood: push the count past the wheel's grow threshold
			base := randomAt()
			for k := 0; k < 80; k++ {
				schedule(base + Time(rng.Int63n(100_000)))
			}
		case r < 60: // cancel (reschedule = cancel + schedule elsewhere)
			if len(live) > 0 {
				i := rng.Intn(len(live))
				p := live[i]
				heap.remove(p.h.index)
				cal.unlink(p.c)
				dropLive(i)
			}
		default: // pop, sometimes held back by a limit
			limit := Time(Forever)
			if rng.Intn(3) == 0 {
				limit = now + Time(rng.Int63n(1_000_000))
			}
			pop(limit)
		}
	}
	drain := func() {
		for heap.len() > 0 {
			pop(Forever)
		}
		if cal.len() != 0 {
			t.Fatalf("seed %d: heap drained but calendar still holds %d events", seed, cal.len())
		}
	}
	drain()

	// Bimodal phase: a rolling window of ~500 near-term events next to
	// 100 timers ~100 µs out, one of them cancelled and re-armed every few
	// pops the way host RTOs are. The window's spacing shifts between
	// 1 ns, 50 ps and 20 ns, so the width must be re-derived at a constant
	// bucket count: cost-triggered recalibration.
	timers := make([]uint64, 100)
	arm := func(k int) {
		timers[k] = seq
		schedule(now + Time(100_000_000+rng.Int63n(10_000_000)))
	}
	for k := range timers {
		arm(k)
	}
	spacing := []Time{1000, 50, 20_000}
	for i := 0; i < 500; i++ {
		schedule(now + Time(i)*spacing[0])
	}
	recals := uint64(0)
	for op := 0; op < 2*ops; op++ {
		size, resizes := len(cal.buckets), cal.stats.Resizes
		pop(Forever)
		if cal.stats.Resizes > resizes && len(cal.buckets) == size {
			recals++
		}
		schedule(now + 500*spacing[op/(ops/2)%len(spacing)] + Time(rng.Int63n(1000)))
		if op%4 == 0 {
			k := rng.Intn(len(timers))
			if i, ok := slot[timers[k]]; ok {
				p := live[i]
				heap.remove(p.h.index)
				cal.unlink(p.c)
				dropLive(i)
			}
			arm(k)
		}
	}
	drain()
	if recals == 0 {
		t.Fatalf("seed %d: the bimodal phase never recalibrated the width", seed)
	}
}

// TestCalendarBimodalScanBound pins O(1) queue work in the regime packet
// models run in: a rolling window of ~500 events ~1 ns apart next to ~100
// retransmit timers ~100 µs out that are cancelled and re-armed. A width
// sized from the whole pending span (the timers) crowds dozens of
// near-term events into each day; the earliest-gap width keeps a pop's
// scan and a cancel's bucket walk a few entries long. The counts are
// deterministic, so the bound holds on any host.
func TestCalendarBimodalScanBound(t *testing.T) {
	const window, timers, pops = 500, 100, 200_000
	rng := rand.New(rand.NewSource(1))
	e := New()
	nop := func() {}
	for i := 0; i < window; i++ {
		e.After(Duration(i+1)*Nanosecond, "near", nop)
	}
	rto := make([]Event, timers)
	arm := func(k int) {
		rto[k] = e.After(100*Microsecond+Duration(rng.Int63n(int64(10*Microsecond))), "rto", nop)
	}
	for k := range rto {
		arm(k)
	}
	cancels := 0
	for i := 0; i < pops; i++ {
		e.Step()
		e.After(window*Nanosecond+Duration(rng.Int63n(1000)), "near", nop)
		if i%4 == 0 {
			k := rng.Intn(timers)
			e.Cancel(rto[k])
			cancels++
			arm(k)
		}
	}
	s := e.QueueStats()
	visits := float64(s.Visits) / float64(s.Pops)
	walk := float64(s.UnlinkSteps) / float64(cancels)
	t.Logf("%d pops: %.2f entries visited per pop; %d cancels: %.2f unlink steps each; %d resizes, %d whole-wheel scans",
		s.Pops, visits, cancels, walk, s.Resizes, s.MinScans)
	if visits > 4 {
		t.Errorf("pops visit %.2f bucket entries each, want ≤ 4", visits)
	}
	if walk > 2 {
		t.Errorf("cancels walk %.2f bucket entries each, want ≤ 2", walk)
	}
}

// TestCalendarReuseNoDoubleDelivery is the pool-churn invariant test run
// in the regime that stresses the calendar specifically: delays spanning
// six orders of magnitude, so the wheel resizes, days wrap years, and the
// sparse fallback fires — while storage recycles through the free list.
// Every surviving event must fire exactly once, every cancelled one never.
func TestCalendarReuseNoDoubleDelivery(t *testing.T) {
	const rounds = 120
	const batch = 60

	e := New()
	fired := make(map[int]int)
	scheduled := 0
	cancelled := make(map[int]bool)
	delays := []Duration{
		1, 700, Nanosecond, 13 * Nanosecond, 900 * Nanosecond,
		Microsecond, 47 * Microsecond, Millisecond, 3 * Millisecond,
	}

	for r := 0; r < rounds; r++ {
		evs := make([]Event, 0, batch)
		ids := make([]int, 0, batch)
		for i := 0; i < batch; i++ {
			id := scheduled
			scheduled++
			d := delays[(i*5+r)%len(delays)] + Duration(i%7)
			evs = append(evs, e.After(d, "cal-churn", func() { fired[id]++ }))
			ids = append(ids, id)
		}
		for i := 0; i < batch; i += 3 {
			e.Cancel(evs[i])
			cancelled[ids[i]] = true
		}
		if r%2 == 0 {
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		} else {
			for s := 0; s < batch/2; s++ {
				if !e.Step() {
					break
				}
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < scheduled; id++ {
		n := fired[id]
		if cancelled[id] {
			if n != 0 {
				t.Fatalf("cancelled event %d fired %d times", id, n)
			}
		} else if n != 1 {
			t.Fatalf("event %d fired %d times, want exactly 1", id, n)
		}
	}
}

// TestCalendarStaleCancelIsNoOp re-pins the generation-stamp contract on
// the calendar-backed engine: a handle kept past its event's death never
// cancels the unrelated event that reuses the storage.
func TestCalendarStaleCancelIsNoOp(t *testing.T) {
	e := New()
	fired := 0
	a := e.After(Second, "a", func() { t.Error("cancelled event a fired") })
	e.Cancel(a)
	b := e.After(Nanosecond, "b", func() { fired++ })
	if a.ev != b.ev {
		t.Fatal("test premise broken: b did not reuse a's storage")
	}
	e.Cancel(a) // stale: must not unlink b from its bucket
	if b.Canceled() {
		t.Fatal("stale Cancel(a) cancelled b")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("b fired %d times, want 1", fired)
	}
	e.Cancel(b) // fired: no-op
	e.Cancel(Event{})
}

// TestCalendarSteadyStateZeroAlloc proves the calendar's schedule→fire and
// schedule→cancel paths allocate nothing once warm, including when
// consecutive events land in fresh day buckets as the clock advances
// around the wheel and when the cost trigger re-derives the width.
func TestCalendarSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	nop := func() {}
	const window = 128
	for i := 0; i < window; i++ {
		e.After(Duration(i+1)*Nanosecond, "warm", nop)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.After(window*Nanosecond, "steady", nop)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.2f objects per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(2000, func() {
		e.Cancel(e.After(Microsecond, "steady", nop))
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/cancel allocates %.2f objects per op, want 0", allocs)
	}
	// The window packs 20× denser next to a re-armed far timer, so the
	// width sized for 1 ns gaps crowds each day and the cost trigger
	// recalibrates it in place — without allocating either.
	rto := e.After(100*Microsecond, "rto", nop)
	resizes := e.QueueStats().Resizes
	allocs = testing.AllocsPerRun(2000, func() {
		e.After(window*50, "dense", nop)
		e.Step()
		e.Cancel(rto)
		rto = e.After(100*Microsecond, "rto", nop)
	})
	if allocs > 0 {
		t.Fatalf("schedule/fire across recalibrations allocates %.2f objects per op, want 0", allocs)
	}
	if e.QueueStats().Resizes == resizes {
		t.Fatal("test premise broken: the denser window never recalibrated the width")
	}
}

// TestCalendarFarFutureOrdering pins the sparse-population fallback: a
// handful of events spread across seconds (thousands of years at the
// initial day width) still pop in exact (at, seq) order.
func TestCalendarFarFutureOrdering(t *testing.T) {
	e := New()
	var got []Time
	times := []Time{
		Time(3 * Second), Time(Nanosecond), Time(2 * Second),
		Time(500 * Millisecond), Time(Microsecond), Time(Second),
	}
	for _, at := range times {
		at := at
		e.At(at, "sparse", func() { got = append(got, at) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(Nanosecond), Time(Microsecond), Time(500 * Millisecond),
		Time(Second), Time(2 * Second), Time(3 * Second)}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
