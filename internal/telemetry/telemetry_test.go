package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Add(-1.5)
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestEWMAPriming(t *testing.T) {
	e := NewEWMA(0.2)
	if e.Primed() {
		t.Fatal("primed before any sample")
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation should prime directly, got %v", e.Value())
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 200; i++ {
		e.Observe(50)
	}
	if math.Abs(e.Value()-50) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
	// Step change: must move most of the way within ~2/alpha observations.
	for i := 0; i < 40; i++ {
		e.Observe(100)
	}
	if e.Value() < 90 {
		t.Fatalf("EWMA too sluggish: %v", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v accepted", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames.sent")
	g := r.Gauge("power.watts")
	h := r.Histogram("latency.ps")
	c.Add(10)
	g.Set(423.5)
	h.Record(450_000)
	snap := r.Snapshot()
	if snap["frames.sent"] != 10 {
		t.Fatalf("snapshot counter = %v", snap["frames.sent"])
	}
	if snap["power.watts"] != 423.5 {
		t.Fatalf("snapshot gauge = %v", snap["power.watts"])
	}
	if snap["latency.ps.count"] != 1 {
		t.Fatalf("snapshot hist count = %v", snap["latency.ps.count"])
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"frames.sent", "power.watts", "latency.ps.p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric")
		}
	}()
	r.Gauge("x")
}
