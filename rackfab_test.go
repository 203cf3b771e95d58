package rackfab

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{Topology: Grid, Width: 4}); err == nil {
		t.Error("grid without height accepted")
	}
	if _, err := New(Config{Topology: "blob", Width: 4, Height: 4}); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := New(Config{Topology: Grid, Width: 4, Height: 4, Media: "aether"}); err == nil {
		t.Error("unknown media accepted")
	}
	if _, err := New(Config{Topology: Grid, Width: 4, Height: 4, SwitchMode: "warp"}); err == nil {
		t.Error("unknown switch mode accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 16 {
		t.Fatalf("nodes = %d", c.Nodes())
	}
	flows, err := c.Inject(UniformTraffic(c, 50, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !f.Done() || f.Failed() {
			t.Fatal("flow unfinished")
		}
		if d, err := f.CompletionTime(); err != nil || d <= 0 {
			t.Fatalf("completion %v err %v", d, err)
		}
	}
	rep := c.Report()
	if rep.FlowsCompleted != 50 || rep.FramesDelivered == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "latency") {
		t.Fatal("report text malformed")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Report {
		c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Inject(UniformTraffic(c, 40, 32<<10)); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(time.Second); err != nil {
			t.Fatal(err)
		}
		return c.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestReconfigurationAPI(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyGridToTorus(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after, err := c.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("mean hops %v → %v", before, after)
	}
}

func TestControlDecisionsVisible(t *testing.T) {
	c, err := New(Config{
		Topology: Grid, Width: 4, Height: 4, Seed: 3,
		Control: ControlConfig{Enabled: true, Epoch: 50 * time.Microsecond, ReconfigUtilization: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(ShuffleTraffic(c, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(c.Decisions()) == 0 {
		t.Fatal("no CRC decisions")
	}
	rep := c.Report()
	if rep.CRCDecisions != len(c.Decisions()) {
		t.Fatal("decision counts disagree")
	}
}

func TestFaultInjection(t *testing.T) {
	c, err := New(Config{Topology: Line, Width: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLinkBER(0, 1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLinkBER(0, 2, 1e-6); err == nil {
		t.Fatal("non-adjacent link accepted")
	}
	if err := c.DisableLanes(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.DisableLanes(1, 2, 5); err == nil {
		t.Fatal("darkening whole link accepted")
	}
	if name, err := c.LinkFECName(0, 1); err != nil || name != "none" {
		t.Fatalf("FEC name %q err %v", name, err)
	}
}

func TestJobCompletionTime(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 3, Height: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := c.Inject(ShuffleTraffic(c, 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JobCompletionTime(flows); err == nil {
		t.Fatal("JCT of unfinished job accepted")
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	jct, err := JobCompletionTime(flows)
	if err != nil || jct <= 0 {
		t.Fatalf("JCT %v err %v", jct, err)
	}
}

func TestIncastAndHotspotGenerators(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	in, err := IncastTraffic(c, 5, 8, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 8 {
		t.Fatalf("incast specs = %d", len(in))
	}
	hs, err := HotspotTraffic(c, 100, 2, 0.7, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 100 {
		t.Fatalf("hotspot specs = %d", len(hs))
	}
	if _, err := c.Inject(append(in, hs...)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorsRejectBadArguments holds IncastTraffic and HotspotTraffic
// to errors, not panics, on arguments outside their domain — each row
// reached a panic inside internal/workload (or a silently wrong flow
// count) before the generators validated up front.
func TestGeneratorsRejectBadArguments(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	incast := func(dst, fanIn int, size int64) func() error {
		return func() error { _, err := IncastTraffic(c, dst, fanIn, size); return err }
	}
	hotspot := func(count, hot int, frac float64, size int64) func() error {
		return func() error { _, err := HotspotTraffic(c, count, hot, frac, size); return err }
	}
	for _, tc := range []struct {
		name string
		call func() error
		ok   bool
	}{
		{"incast fan-in = nodes", incast(5, 16, 1<<10), false},
		{"incast fan-in > nodes", incast(5, 40, 1<<10), false},
		{"incast fan-in 0", incast(5, 0, 1<<10), false},
		{"incast negative fan-in", incast(5, -1, 1<<10), false},
		{"incast dst negative", incast(-1, 4, 1<<10), false},
		{"incast dst = nodes", incast(16, 4, 1<<10), false},
		{"incast zero size", incast(5, 4, 0), false},
		{"hotspot hot = nodes", hotspot(10, 16, 0.5, 1<<10), false},
		{"hotspot hot > nodes", hotspot(10, 17, 0.5, 1<<10), false},
		{"hotspot hot 0", hotspot(10, 0, 0.5, 1<<10), false},
		{"hotspot fraction > 1", hotspot(10, 2, 1.5, 1<<10), false},
		{"hotspot fraction < 0", hotspot(10, 2, -0.1, 1<<10), false},
		{"hotspot fraction NaN", hotspot(10, 2, math.NaN(), 1<<10), false},
		{"hotspot negative count", hotspot(-1, 2, 0.5, 1<<10), false},
		{"hotspot zero count", hotspot(0, 2, 0.5, 1<<10), false},
		{"hotspot negative size", hotspot(10, 2, 0.5, -1), false},
		// The domain's edges stay legal.
		{"incast fan-in nodes-1", incast(0, 15, 1), true},
		{"hotspot hot nodes-1", hotspot(1, 15, 1, 1), true},
		{"hotspot fraction 0", hotspot(1, 1, 0, 1), true},
	} {
		if err := tc.call(); (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestPermutationTrafficTinyCluster: a 1-node cluster has no permutation
// partner. PermutationTraffic panicked inside internal/workload there; it
// now returns an empty result, which both engines accept as a no-op.
func TestPermutationTrafficTinyCluster(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		c, err := New(Config{Topology: Grid, Width: 1, Height: 1, Engine: engine, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		specs := PermutationTraffic(c, 1<<10)
		if len(specs) != 0 {
			t.Fatalf("engine %v: %d specs on a 1-node cluster, want none", engine, len(specs))
		}
		if flows, err := c.Inject(specs); err != nil || len(flows) != 0 {
			t.Fatalf("engine %v: Inject(empty) = %d flows, err %v", engine, len(flows), err)
		}
	}
}

func TestPowerCap(t *testing.T) {
	c, err := New(Config{
		Topology: Grid, Width: 4, Height: 4, Seed: 8,
		PowerCapW: 100,
		Control:   ControlOn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(UniformTraffic(c, 30, 16<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	if c.PowerW() <= 0 {
		t.Fatal("no power accounting")
	}
}
