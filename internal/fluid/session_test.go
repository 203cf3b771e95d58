package fluid

import (
	"fmt"
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// sessionSpecs is a shared mix with staggered arrivals and shared paths so
// chunk boundaries land mid-traffic.
func sessionSpecs() []workload.FlowSpec {
	return []workload.FlowSpec{
		{Src: 0, Dst: 5, Bytes: 50e3, At: 0, Label: "a"},
		{Src: 3, Dst: 6, Bytes: 100e3, At: 20 * sim.Time(sim.Microsecond), Label: "b"},
		{Src: 12, Dst: 9, Bytes: 200e3, At: 40 * sim.Time(sim.Microsecond), Label: "c"},
		{Src: 15, Dst: 10, Bytes: 400e3, At: 10 * sim.Time(sim.Microsecond), Label: "d"},
		{Src: 1, Dst: 13, Bytes: 800e3, At: 30 * sim.Time(sim.Microsecond), Label: "e"},
		{Src: 8, Dst: 11, Bytes: 1600e3, At: 25 * sim.Time(sim.Microsecond), Label: "f"},
	}
}

func resultFingerprint(res *Result) string {
	s := fmt.Sprintf("events=%d mean=%d p99=%d jct=%d solver=%+v faults=%+v\n",
		res.Events, res.MeanFCT, res.P99FCT, res.JCT, res.Solver, res.Faults)
	for _, f := range res.Flows {
		s += fmt.Sprintf("%s %d %d %d %d\n", f.Spec.Label, f.Spec.Bytes, int64(f.Start), int64(f.FCT), f.Hops)
	}
	return s
}

// TestSessionMatchesRun holds the stepped Session bit-equal to the one-shot
// Run: the same scenario advanced in many small chunks must reproduce every
// flow result, counter, and summary byte Run produces — fault-free and
// under a link flap + node pulse schedule.
func TestSessionMatchesRun(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "fault-free"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			mkSched := func(g *topo.Graph) *faults.Schedule {
				if !faulted {
					return nil
				}
				e, ok := g.EdgeBetween(9, 10)
				if !ok {
					t.Fatal("missing edge 9-10")
				}
				return faults.New(
					faults.Event{At: 30 * sim.Time(sim.Microsecond), Target: e.Index(), Kind: faults.LinkDown},
					faults.Event{At: 200 * sim.Time(sim.Microsecond), Target: e.Index(), Kind: faults.LinkUp},
					faults.Event{At: 80 * sim.Time(sim.Microsecond), Target: 6, Kind: faults.NodeDown},
					faults.Event{At: 120 * sim.Time(sim.Microsecond), Target: 6, Kind: faults.NodeUp},
				)
			}

			g1 := topo.NewGrid(4, 4, topo.Options{})
			want, err := Run(Config{Graph: g1, Faults: mkSched(g1)}, sessionSpecs())
			if err != nil {
				t.Fatal(err)
			}

			g2 := topo.NewGrid(4, 4, topo.Options{})
			s, err := NewSession(Config{Graph: g2, Faults: mkSched(g2)}, sessionSpecs())
			if err != nil {
				t.Fatal(err)
			}
			step := 7 * sim.Time(sim.Microsecond)
			for until := step; !s.Done(); until += step {
				if err := s.Advance(until); err != nil {
					t.Fatal(err)
				}
				if s.Now() != until {
					t.Fatalf("clock %v after Advance(%v)", s.Now(), until)
				}
			}
			got := s.Snapshot()
			if a, b := resultFingerprint(want), resultFingerprint(got); a != b {
				t.Fatalf("stepped session diverged from Run:\n--- run ---\n%s--- session ---\n%s", a, b)
			}

			// FlowStatus must agree with the result rows through Order.
			order := s.Order()
			specs := sessionSpecs()
			for i, spec := range specs {
				st := s.FlowStatus(order[i])
				if !st.Done {
					t.Fatalf("flow %q not done after completion", spec.Label)
				}
				found := false
				for _, fr := range want.Flows {
					if fr.Spec.Label == spec.Label && fr.Start == st.Start && fr.FCT == st.FCT && fr.Hops == st.Hops {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("flow %q status %+v matches no Run result row", spec.Label, st)
				}
			}
		})
	}
}

// TestSessionMatchesRunMultiBatch is the service-mode arm: a session that
// receives a second batch mid-run must be invariant to how the surrounding
// time is sliced — many 7µs Advances against a single AdvanceUntilDone, with
// the Inject at the same instant, produce byte-identical results. (The
// injected-vs-upfront-Run equivalence is TestSessionInjectMatchesUpfront.)
func TestSessionMatchesRunMultiBatch(t *testing.T) {
	inject := injectBatch2()
	injectAt := 15 * sim.Time(sim.Microsecond)
	run := func(stepped bool) string {
		g := topo.NewGrid(4, 4, topo.Options{})
		s, err := NewSession(Config{Graph: g}, sessionSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Advance(injectAt); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Inject(inject); err != nil {
			t.Fatal(err)
		}
		if stepped {
			step := 7 * sim.Time(sim.Microsecond)
			for until := injectAt + step; !s.Done(); until += step {
				if err := s.Advance(until); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := s.AdvanceUntilDone(sim.Forever); err != nil {
			t.Fatal(err)
		}
		return resultFingerprint(s.Snapshot())
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("multi-batch stepping diverged:\n--- stepped ---\n%s--- one-shot ---\n%s", a, b)
	}
}

// TestSessionOrderIsInputInvariant: the Order mapping must hand every input
// position the canonical ID of its spec regardless of input order.
func TestSessionOrderIsInputInvariant(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	specs := sessionSpecs()
	fwd, err := NewSession(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]workload.FlowSpec, len(specs))
	for i, s := range specs {
		rev[len(specs)-1-i] = s
	}
	back, err := NewSession(Config{Graph: g}, rev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if fwd.Order()[i] != back.Order()[len(specs)-1-i] {
			t.Fatalf("canonical ID of spec %d depends on input order: %d vs %d",
				i, fwd.Order()[i], back.Order()[len(specs)-1-i])
		}
	}
}

// TestSessionAdvanceIdlesPastCompletion: advancing past the last event just
// moves the clock.
func TestSessionAdvanceIdlesPastCompletion(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	s, err := NewSession(Config{Graph: g}, sessionSpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("session not done")
	}
	if s.Now() != sim.Time(10*sim.Second) {
		t.Fatalf("clock %v, want 10s", s.Now())
	}
	if err := s.Advance(sim.Time(20 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != sim.Time(20*sim.Second) {
		t.Fatalf("idle advance left clock at %v", s.Now())
	}

	// AdvanceUntilDone must NOT idle forward: the clock stops at the last
	// completion, like the packet engine's RunUntilDone.
	s2, err := NewSession(Config{Graph: g}, sessionSpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AdvanceUntilDone(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !s2.Done() {
		t.Fatal("session not done")
	}
	if s2.Now() >= sim.Time(sim.Second) {
		t.Fatalf("AdvanceUntilDone idled the clock to %v", s2.Now())
	}
}

// sequentialFills drives specs, all arriving at t=0, through a bare engine
// one arrival at a time — every arrival its own refill, the shape a burst
// took before arrivals were batched — and returns the fills the arrivals
// and the completions cost. A non-empty down list is applied at t=0 first,
// as a Session applies same-instant faults ahead of arrivals.
func sequentialFills(t *testing.T, g *topo.Graph, specs []workload.FlowSpec, down []faults.LinkEvent) (arrivals, completions int64) {
	t.Helper()
	en := newEngine(g, 450*sim.Nanosecond)
	if err := en.addFlows(canonicalize(specs)); err != nil {
		t.Fatal(err)
	}
	if len(down) > 0 {
		en.applyLinkEventGroup(0, down)
	}
	for fid := range en.flows {
		en.arrive(int32(fid), 0)
	}
	arrivals = en.stats.Fills()
	for {
		at, fid := en.nextDone()
		if fid < 0 {
			break
		}
		en.complete(fid, at)
	}
	return arrivals, en.stats.Fills() - arrivals
}

// TestBurstArrivalCostsOneFill is the host-independent work gate for
// same-instant arrivals: a permutation burst of n flows on a 4×4 torus
// costs exactly one arrival fill, so the run's fills are 1 + the
// completion fills that one-at-a-time arrival also pays (where the
// arrivals alone cost n). It holds fault-free and with a link of the burst
// down at the burst instant, where flows re-path as they arrive.
func TestBurstArrivalCostsOneFill(t *testing.T) {
	specs := workload.Permutation(sim.NewRNG(41), 16, workload.Fixed(1e6))
	for _, faulted := range []bool{false, true} {
		t.Run(fmt.Sprintf("faulted=%v", faulted), func(t *testing.T) {
			g := topo.NewTorus(4, 4, topo.Options{})
			var down []faults.LinkEvent
			cfg := Config{Graph: g}
			if faulted {
				// Down the first link of the first flow's path.
				probe := newEngine(g, 450*sim.Nanosecond)
				if err := probe.addFlows(canonicalize(specs)); err != nil {
					t.Fatal(err)
				}
				li := int(probe.flows[0].links[0])
				down = []faults.LinkEvent{{At: 0, Edge: li, Factor: 0}}
				cfg.Faults = faults.New(faults.Event{At: 0, Target: li, Kind: faults.LinkDown})
			}
			arrivals, completions := sequentialFills(t, topo.NewTorus(4, 4, topo.Options{}), specs, down)
			if arrivals != int64(len(specs)) || completions == 0 {
				t.Fatalf("sequential reference: %d arrival fills for %d flows, %d completion fills", arrivals, len(specs), completions)
			}

			s, err := NewSession(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			defer s.RestoreGraph()
			if err := s.Advance(0); err != nil {
				t.Fatal(err)
			}
			if got := s.ActiveFlows(); got != len(specs) {
				t.Fatalf("%d flows active after the burst instant, want %d", got, len(specs))
			}
			if got := s.Snapshot().Solver.Fills(); got != 1 {
				t.Fatalf("burst of %d flows cost %d fills, want 1", len(specs), got)
			}
			if err := s.AdvanceUntilDone(sim.Forever); err != nil {
				t.Fatal(err)
			}
			snap := s.Snapshot()
			if got, want := snap.Solver.Fills(), 1+completions; got != want {
				t.Fatalf("run cost %d fills, want 1 burst + %d completion fills = %d", got, completions, want)
			}
			if faulted && (snap.Faults.CapacityEvents != 1 || snap.Faults.RouteRepairs == 0) {
				t.Fatalf("fault at the burst instant not applied: %+v", snap.Faults)
			}
		})
	}
}

// TestPhaseReleaseCostsOneFill: in a two-phase session each phase release
// is one fill, so the run costs exactly what the two phases cost as
// stand-alone bursts — 1 + completion fills each. A phase starts on an
// idle fabric, so its dynamics are the stand-alone run's shifted in time.
func TestPhaseReleaseCostsOneFill(t *testing.T) {
	rng := sim.NewRNG(43)
	phases := [][]workload.FlowSpec{
		workload.Permutation(rng, 16, workload.Fixed(1e6)),
		workload.Permutation(rng, 16, workload.Fixed(500e3)),
	}
	var want int64
	for _, ph := range phases {
		_, completions := sequentialFills(t, topo.NewTorus(4, 4, topo.Options{}), ph, nil)
		want += 1 + completions
	}
	s, err := NewPhasedSession(Config{Graph: topo.NewTorus(4, 4, topo.Options{})}, phases)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(0); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Solver.Fills(); got != 1 {
		t.Fatalf("first phase release cost %d fills, want 1", got)
	}
	if err := s.AdvanceUntilDone(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Solver.Fills(); got != want {
		t.Fatalf("two-phase run cost %d fills, want %d (one per release plus each phase's completion fills)", got, want)
	}
}
