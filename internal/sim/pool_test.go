package sim

import (
	"testing"
)

// TestEventReuseNoDoubleDelivery churns the engine through interleaved
// schedule/cancel/pop cycles far past the free-list's steady state and
// asserts the delivery invariants that pooling must not break: every
// surviving event fires exactly once, every cancelled event fires never,
// and recycled storage never resurrects an old callback.
func TestEventReuseNoDoubleDelivery(t *testing.T) {
	const rounds = 200
	const batch = 50

	e := New()
	fired := make(map[int]int)
	scheduled := 0
	cancelledIDs := make(map[int]bool)

	for r := 0; r < rounds; r++ {
		evs := make([]Event, 0, batch)
		ids := make([]int, 0, batch)
		for i := 0; i < batch; i++ {
			id := scheduled
			scheduled++
			d := Duration(1+(i*7)%13) * Nanosecond
			evs = append(evs, e.After(d, "churn", func() { fired[id]++ }))
			ids = append(ids, id)
		}
		// Cancel a deterministic third of the batch: some from the middle
		// of the heap, some heads, some tails.
		for i := 0; i < batch; i += 3 {
			e.Cancel(evs[i])
			cancelledIDs[ids[i]] = true
		}
		// Drain half the rounds fully, step the others partially so the
		// heap and free list keep exchanging storage.
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
		if cancelledIDs[id] {
			if n != 0 {
				t.Fatalf("cancelled event %d fired %d times", id, n)
			}
			continue
		}
		if n != 1 {
			t.Fatalf("event %d fired %d times, want exactly 1", id, n)
		}
	}
}

// TestStaleCancelIsNoOp pins the safety contract of pooled events: a
// handle kept past its event's death must never cancel the unrelated
// event that later reuses the storage.
func TestStaleCancelIsNoOp(t *testing.T) {
	e := New()
	fired := 0

	// Stale via cancellation: cancel a, then schedule b (reusing a's
	// storage), then cancel a again.
	a := e.After(Nanosecond, "a", func() { t.Error("cancelled event a fired") })
	e.Cancel(a)
	b := e.After(Nanosecond, "b", func() { fired++ })
	if a.ev != b.ev {
		t.Fatal("test premise broken: b did not reuse a's storage")
	}
	e.Cancel(a) // stale: must not touch b
	if b.Canceled() {
		t.Fatal("stale Cancel(a) cancelled b")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("b fired %d times, want 1", fired)
	}

	// Stale via firing: after b fired, its storage is free again; a new
	// event c reuses it and a late Cancel(b) must not touch c.
	c := e.After(Nanosecond, "c", func() { fired++ })
	if b.ev != c.ev {
		t.Fatal("test premise broken: c did not reuse b's storage")
	}
	e.Cancel(b)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("c fired; total %d, want 2", fired)
	}

	// Stale accessors report zero values; the zero handle is inert.
	if a.At() != 0 || a.Label() != "" || a.Canceled() {
		t.Fatalf("stale handle leaks reused state: at=%v label=%q canceled=%v", a.At(), a.Label(), a.Canceled())
	}
	e.Cancel(Event{})
}

// TestEventReuseRecycles proves the free list actually recycles: in steady
// state a schedule→fire cycle performs no Event allocation.
func TestEventReuseRecycles(t *testing.T) {
	e := New()
	nop := func() {}
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(Nanosecond, "warm", nop)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(Nanosecond, "steady", nop)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
}

// TestEventReuseCancelRecycles is the cancel-path twin: schedule→cancel in
// steady state must not allocate either.
func TestEventReuseCancelRecycles(t *testing.T) {
	e := New()
	nop := func() {}
	for i := 0; i < 64; i++ {
		e.Cancel(e.After(Nanosecond, "warm", nop))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.After(Nanosecond, "steady", nop))
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/cancel allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkEngineSchedule measures the schedule→fire hot path: a rolling
// window of pending events with one scheduled and one popped per
// iteration — the regime every packet model keeps the engine in.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	nop := func() {}
	const window = 128
	for i := 0; i < window; i++ {
		e.After(Duration(i+1)*Nanosecond, "fill", nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(window*Nanosecond, "bench", nop)
		e.Step()
	}
}

// BenchmarkEngineScheduleBimodal is the pending-set shape of a loaded
// packet model: a rolling window of 512 events 1 ns apart next to 64
// retransmit timers 100–163 µs out, one cancelled and re-armed every
// eighth iteration the way host RTOs are. Filling it grows the wheel, and
// a day width sized from the whole pending span (the timers) would crowd
// the window into a few days and make every pop walk them.
func BenchmarkEngineScheduleBimodal(b *testing.B) {
	e := New()
	nop := func() {}
	const window, timers = 512, 64
	for i := 0; i < window; i++ {
		e.After(Duration(i+1)*Nanosecond, "fill", nop)
	}
	rto := make([]Event, timers)
	arm := func(k int) {
		rto[k] = e.After(100*Microsecond+Duration(k)*Microsecond, "rto", nop)
	}
	for k := range rto {
		arm(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(window*Nanosecond, "bench", nop)
		e.Step()
		if i%8 == 0 {
			k := i / 8 % timers
			e.Cancel(rto[k])
			arm(k)
		}
	}
}

// BenchmarkEngineScheduleCancel measures the schedule→cancel path, the
// other half of the free-list churn (timeouts that almost never fire).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := New()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.After(Nanosecond, "bench", nop))
	}
}
