package fluid

import (
	"testing"

	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// phasedFingerprintRun drives a phased session to completion and returns
// (fingerprint, per-handle statuses in input-flattened order).
func phasedFingerprintRun(t *testing.T, g *topo.Graph, phases [][]workload.FlowSpec) (string, []FlowStatus) {
	t.Helper()
	s, err := NewPhasedSession(Config{Graph: g}, phases)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceUntilDone(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("phased session not done")
	}
	order := s.Order()
	sts := make([]FlowStatus, len(order))
	for i, id := range order {
		sts[i] = s.FlowStatus(id)
	}
	return resultFingerprint(s.Snapshot()), sts
}

// TestPhasedSessionGatesPhases holds the barrier semantics: no flow of
// phase p+1 starts before the last flow of phase p completes, and a
// phase-relative At of zero anchors exactly at the drain instant.
func TestPhasedSessionGatesPhases(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	phases := [][]workload.FlowSpec{
		{
			{Src: 0, Dst: 5, Bytes: 200e3, Label: "p0"},
			{Src: 10, Dst: 3, Bytes: 400e3, Label: "p0"},
		},
		{
			{Src: 5, Dst: 0, Bytes: 100e3, Label: "p1"},
			{Src: 3, Dst: 10, Bytes: 100e3, Label: "p1"},
		},
		{
			{Src: 15, Dst: 0, Bytes: 50e3, At: 3 * sim.Time(sim.Microsecond), Label: "p2"},
		},
	}
	_, sts := phasedFingerprintRun(t, g, phases)

	// The gate fires at the completion *event* — when the last flow's bytes
	// drain — while the FCT it reports still carries the hops×450ns
	// delivery tail, so subtract it to recover the event instant.
	drain := func(sts []FlowStatus) sim.Time {
		var d sim.Time
		for _, st := range sts {
			tail := sim.Duration(int64(450*sim.Nanosecond) * int64(st.Hops))
			if end := st.Start.Add(st.FCT - tail); end > d {
				d = end
			}
		}
		return d
	}
	drain0 := drain(sts[:2])
	for i, st := range sts[2:4] {
		if st.Start != drain0 {
			t.Errorf("phase-1 flow %d started at %v, want the phase-0 drain instant %v", i, st.Start, drain0)
		}
	}
	want := drain(sts[2:4]).Add(3 * sim.Microsecond)
	if sts[4].Start != want {
		t.Errorf("phase-2 flow started at %v, want drain+3µs = %v", sts[4].Start, want)
	}
}

// TestPhasedSessionSinglePhaseMatchesSession holds a one-phase phased
// session byte-equal to the plain session over the same specs: the gate
// machinery must be a no-op when there is nothing to gate.
func TestPhasedSessionSinglePhaseMatchesSession(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	specs := sessionSpecs()

	plain, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := phasedFingerprintRun(t, g, [][]workload.FlowSpec{specs})
	if want := resultFingerprint(plain); got != want {
		t.Errorf("single-phase session diverged from plain run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPhasedSessionOrderInvariant holds the whole phased run independent of
// within-phase input order: reversing every phase's specs must reproduce
// the same fingerprint, and each handle must resolve to the same status.
func TestPhasedSessionOrderInvariant(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	phases := [][]workload.FlowSpec{
		workload.AllToAll(4, 64e3),
		{
			{Src: 0, Dst: 15, Bytes: 300e3, Label: "x"},
			{Src: 15, Dst: 0, Bytes: 300e3, Label: "y"},
			{Src: 7, Dst: 8, Bytes: 150e3, Label: "z"},
		},
	}
	fwd, fwdSts := phasedFingerprintRun(t, g, phases)

	rev := make([][]workload.FlowSpec, len(phases))
	for p, ph := range phases {
		rev[p] = make([]workload.FlowSpec, len(ph))
		for i, s := range ph {
			rev[p][len(ph)-1-i] = s
		}
	}
	got, revSts := phasedFingerprintRun(t, g, rev)
	if got != fwd {
		t.Errorf("reversed within-phase order diverged:\ngot:\n%s\nwant:\n%s", got, fwd)
	}
	// Handle i of the reversed run is handle (len-1-i) of the forward run,
	// per phase.
	base := 0
	for _, ph := range phases {
		for i := range ph {
			if revSts[base+len(ph)-1-i] != fwdSts[base+i] {
				t.Errorf("handle status mismatch at phase offset %d+%d", base, i)
			}
		}
		base += len(ph)
	}
}

// TestPhasedSessionRejectsBadShapes pins the constructor's validation.
func TestPhasedSessionRejectsBadShapes(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	if _, err := NewPhasedSession(Config{Graph: g}, nil); err == nil {
		t.Error("want error for zero phases")
	}
	if _, err := NewPhasedSession(Config{Graph: g}, [][]workload.FlowSpec{
		{{Src: 0, Dst: 1, Bytes: 1e3}},
		{},
	}); err == nil {
		t.Error("want error for an empty phase")
	}
}

// TestMergeFallbackFillOnce pins the chronology-merge replay: a component
// merge whose oracle entries were stamped by different fills reconstructs
// the merged round schedule by rate (each part's own chronology preserved
// via the seq tie-break) and replays warm — zero fallbacks through the
// merge, never a ColdFill. The pre-merge arrivals also replay warm: an
// empty-oracle fill is the trivial schedule, driven entirely by the live
// seed-link minimum with the newcomer absorbed. A and B arrive at distinct
// instants so the two parts are stamped by different fills — same-instant
// arrivals would share one fill (TestSameInstantPartsShareOneFill).
func TestMergeFallbackFillOnce(t *testing.T) {
	g := topo.NewLine(7, topo.Options{})
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1e6, At: 0, Label: "A"},
		{Src: 5, Dst: 6, Bytes: 2e6, At: 500 * sim.Time(sim.Nanosecond), Label: "B"},
		// C spans the whole line, merging A's and B's disjoint components.
		{Src: 0, Dst: 6, Bytes: 1e6, At: 1 * sim.Time(sim.Microsecond), Label: "C"},
	}
	s, err := NewSession(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Advance to just before the merge: A and B each arrived into an empty
	// component — two trivial warm replays, nothing cold, no fallback.
	if err := s.Advance(999 * sim.Time(sim.Nanosecond)); err != nil {
		t.Fatal(err)
	}
	pre := s.Snapshot().Solver
	if want := (SolverStats{WarmHits: 2}); pre != want {
		t.Fatalf("solver stats before the merge = %+v, want %+v", pre, want)
	}
	// C's arrival merges the two components. Their oracle entries carry two
	// different fill stamps, but each part's levels ascend in its own freeze
	// order, so the rate-sorted union is a valid merged schedule; A and B —
	// flows whose every link is on C's (seed) path — are absorbed at the
	// new shared level rather than killing the schedule. Zero fallbacks.
	if err := s.Advance(1 * sim.Time(sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveFlows(); got != 3 {
		t.Fatalf("want 3 active flows after the merge arrival, got %d", got)
	}
	mid := s.Snapshot().Solver
	if want := (SolverStats{WarmHits: 3}); mid != want {
		t.Errorf("solver stats after merge arrival = %+v, want %+v (the merge replays warm)", mid, want)
	}

	if err := s.AdvanceUntilDone(sim.Forever); err != nil {
		t.Fatal(err)
	}
	fin := s.Snapshot().Solver
	if fin.ColdFills != 0 {
		t.Errorf("merged components went cold %d times, want 0 (warm path throughout)", fin.ColdFills)
	}
	// Completions: A departs (C replays at its old shared level off the
	// merged fill's schedule — a hit), then C departs (B's rate must RISE
	// to the full link, which no replay of old levels can produce — the
	// run's lone legitimate fallback), then B empties its component
	// (counted as neither).
	if want := (SolverStats{WarmHits: 4, WarmFallbacks: 1}); fin != want {
		t.Errorf("final solver stats = %+v, want %+v", fin, want)
	}
}

// TestSameInstantPartsShareOneFill is TestMergeFallbackFillOnce's sibling
// with A and B at one instant: their disjoint components arrive as one
// batch and cost exactly one fill.
func TestSameInstantPartsShareOneFill(t *testing.T) {
	g := topo.NewLine(7, topo.Options{})
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1e6, At: 0, Label: "A"},
		{Src: 5, Dst: 6, Bytes: 2e6, At: 0, Label: "B"},
	}
	s, err := NewSession(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(0); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveFlows(); got != 2 {
		t.Fatalf("want A and B active, got %d active flows", got)
	}
	if fills := s.Snapshot().Solver.Fills(); fills != 1 {
		t.Fatalf("A and B at one instant cost %d fills, want 1", fills)
	}
}

// TestNearestRankShared holds fluid.NearestRank and telemetry.NearestRank
// to one behavior across the whole small-n range — the convention has
// exactly one definition and this pins any future re-derivation drift.
func TestNearestRankShared(t *testing.T) {
	for n := 1; n <= 500; n++ {
		for _, pct := range []int{1, 50, 90, 99, 100} {
			if got, want := NearestRank(n, pct), telemetry.NearestRank(n, pct); got != want {
				t.Fatalf("NearestRank(%d, %d) = %d, telemetry says %d", n, pct, got, want)
			}
		}
	}
}
