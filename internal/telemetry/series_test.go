package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSeriesFoldsIntoWindows(t *testing.T) {
	s := NewSeries(1000, 8)
	s.Observe(100, 2)
	s.Observe(900, 4)
	s.Observe(2500, 1) // skips window 1 entirely
	wins := s.Windows()
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	w0 := wins[0]
	if w0.Index != 0 || w0.Count != 2 || w0.Sum != 6 || w0.Min != 2 || w0.Max != 4 || w0.Last != 4 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if got := w0.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if wins[1].Index != 2 {
		t.Fatalf("window 1 index = %d, want 2 (empty windows must not materialize)", wins[1].Index)
	}
}

func TestSeriesStragglersFoldIntoNewestWindow(t *testing.T) {
	s := NewSeries(1000, 8)
	s.Observe(5500, 1)
	s.Observe(200, 9) // behind the open window: folds forward, not backwards
	wins := s.Windows()
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1", len(wins))
	}
	if wins[0].Count != 2 || wins[0].Max != 9 {
		t.Fatalf("straggler not folded into newest window: %+v", wins[0])
	}
}

func TestSeriesEvictsOldest(t *testing.T) {
	s := NewSeries(10, 3)
	for i := int64(0); i < 5; i++ {
		s.Observe(i*10, float64(i))
	}
	if s.Evicted() != 2 {
		t.Fatalf("Evicted = %d, want 2", s.Evicted())
	}
	wins := s.Windows()
	if len(wins) != 3 || wins[0].Index != 2 || wins[2].Index != 4 {
		t.Fatalf("retained windows = %+v", wins)
	}
}

// naiveSeries is the reference eviction: shift every retained window down
// by one whenever a new window arrives at the bound.
type naiveSeries struct {
	interval, max int64
	windows       []Window
	evicted       int64
}

func (s *naiveSeries) observe(atPs int64, v float64) {
	idx := atPs / s.interval
	if n := len(s.windows); n > 0 && idx <= s.windows[n-1].Index {
		last := &s.windows[n-1]
		last.Count++
		last.Sum += v
		last.Min = math.Min(last.Min, v)
		last.Max = math.Max(last.Max, v)
		last.Last = v
		return
	}
	if int64(len(s.windows)) == s.max {
		copy(s.windows, s.windows[1:])
		s.windows = s.windows[:s.max-1]
		s.evicted++
	}
	s.windows = append(s.windows, Window{Index: idx, Count: 1, Sum: v, Min: v, Max: v, Last: v})
}

// TestSeriesEvictionMatchesNaive drives a series through more than three
// times its retention bound — several backing-array compactions — with
// gaps, same-window folds and stragglers, and after every observation
// demands the same windows and eviction count as the shift-down reference.
func TestSeriesEvictionMatchesNaive(t *testing.T) {
	for _, max := range []int{1, 2, 3, 7} {
		s := NewSeries(10, max)
		ref := &naiveSeries{interval: 10, max: int64(max)}
		rng := rand.New(rand.NewSource(int64(max)))
		at := int64(0)
		for i := 0; i < 40*max; i++ {
			switch r := rng.Intn(10); {
			case r < 5:
				at += 10 * int64(1+rng.Intn(3)) // new window, maybe after a gap
			case r < 8:
				at += int64(rng.Intn(3)) // likely the same window
			}
			obs := at
			if rng.Intn(6) == 0 {
				obs = at - 10*int64(1+rng.Intn(2*max+1)) // straggler
			}
			v := float64(rng.Intn(100))
			s.Observe(obs, v)
			ref.observe(obs, v)
			if !reflect.DeepEqual(s.Windows(), ref.windows) || s.Evicted() != ref.evicted {
				t.Fatalf("max %d step %d: windows %+v evicted %d, want %+v evicted %d",
					max, i, s.Windows(), s.Evicted(), ref.windows, ref.evicted)
			}
		}
		if ref.evicted < int64(3*max) {
			t.Fatalf("max %d: only %d evictions — walk too short", max, ref.evicted)
		}
	}
}

func TestSeriesRejectsNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeries(0, …) did not panic")
		}
	}()
	NewSeries(0, 4)
}

func TestRegistrySamplesOrderAndP999(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	c := r.Counter("frames")
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	c.Inc()
	want := []string{"lat.count", "lat.mean", "lat.p50", "lat.p99", "lat.p999", "lat.max", "frames"}
	pts := r.Samples()
	if len(pts) != len(want) {
		t.Fatalf("got %d samples, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		// Registration order across metrics, fixed suffix order within —
		// no sorting pass anywhere.
		if p.Suffix != want[i] {
			t.Fatalf("sample %d key = %q, want %q", i, p.Suffix, want[i])
		}
	}
	// The histogram is bucketed, so quantiles are bucket lower bounds:
	// assert the ordering and bounds rather than exact ranks.
	snap := r.Snapshot()
	p50, p99, p999, max := snap["lat.p50"], snap["lat.p99"], snap["lat.p999"], snap["lat.max"]
	if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
		t.Fatalf("quantiles out of order: p50=%v p99=%v p999=%v max=%v", p50, p99, p999, max)
	}
	if p999 <= 900 || max != 1000 {
		t.Fatalf("p999 = %v (max %v) over samples 1..1000 — tail estimate off", p999, max)
	}
}
