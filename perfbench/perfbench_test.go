package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runTiny runs one workload at the self-test size, untraced or traced, and
// returns its report and result.
func runTiny(t *testing.T, name string, traced bool) (string, result) {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var (
		out bytes.Buffer
		res result
	)
	if traced {
		res, err = runTraced(&out, w, w.tiny, 3, 0, filepath.Join(t.TempDir(), "spans.json"))
	} else {
		res, err = runEndToEnd(&out, w, w.tiny, 3, 0)
	}
	if err != nil {
		t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s traced=%v: result %+v\n%s", name, traced, res, out.String())
	}
	return out.String(), res
}

// wantMetrics checks the result holds exactly defs, each with its unit.
func wantMetrics(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", name, d.name, m, d.unit)
		}
	}
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, w := range benches {
		text, res := runTiny(t, w.name, false)
		wantMetrics(t, w.name, res, endToEnd)
		printed := []string{"failed_pct"}
		for _, d := range endToEnd {
			printed = append(printed, d.name)
		}
		if w.name == "serve-flaps" {
			printed = append(printed, "tick_p50_us", "tick_p99_us", "restore_s")
		}
		for _, m := range printed {
			if !strings.Contains(text, "metric "+m+" ") {
				t.Errorf("%s: no %q line in\n%s", w.name, m, text)
			}
		}
		if !strings.Contains(text, "fingerprint "+w.name) {
			t.Errorf("%s: no fingerprint line", w.name)
		}

		text, res = runTiny(t, w.name, true)
		wantMetrics(t, w.name, res, perLayer)
		printed = printed[:0]
		for _, d := range perLayer {
			printed = append(printed, d.name)
		}
		if w.name == "serve-flaps" {
			for _, d := range serveExtras {
				printed = append(printed, d.name)
			}
		}
		for _, m := range printed {
			if !strings.Contains(text, "layer "+m+" ") {
				t.Errorf("%s traced: no %q line", w.name, m)
			}
		}
		for _, s := range []string{"tracing overhead:", "self fluid", "spans:"} {
			if !strings.Contains(text, s) {
				t.Errorf("%s traced: no %q in\n%s", w.name, s, text)
			}
		}
	}
}

// tinyTrials runs every input of a workload once, plus a repeat of input 0.
func tinyTrials(t *testing.T, w *bench) ([]*trial, params) {
	t.Helper()
	p := w.tiny
	var trials []*trial
	for i := 0; i <= p.inputs; i++ {
		seed := inputSeed(5, i%p.inputs)
		tr, err := w.trial(seed, p, false)
		if err != nil {
			t.Fatal(err)
		}
		if w.replay != nil && i < p.inputs {
			if tr.fcts, tr.replayInjected, err = w.replay(seed, p); err != nil {
				t.Fatal(err)
			}
		}
		trials = append(trials, tr)
	}
	return trials, p
}

func TestCheckRejectsTamperedResults(t *testing.T) {
	for _, w := range benches {
		trials, p := tinyTrials(t, w)
		var ref = trials[0].fctP99
		if bad := checkTrials(w, p, trials, ref); len(bad) > 0 {
			t.Fatalf("%s: untampered trials fail: %v", w.name, bad)
		}
		tamper := map[string]func(ts []*trial){
			"repeat fingerprint": func(ts []*trial) { ts[p.inputs].fingerprint = "0" },
			"failed flow":        func(ts []*trial) { ts[1].failed = 1 },
			"too few trials":     func(ts []*trial) { ts[len(ts)-1] = nil },
		}
		switch w.name {
		case "fluid-perm":
			tamper["façade p99"] = func(ts []*trial) { ts[0].fctP99++ }
		case "packet-crc":
			tamper["lost completion"] = func(ts []*trial) { ts[0].completed-- }
		case "serve-flaps":
			tamper["resume"] = func(ts []*trial) { ts[0].resumed = "0" }
			tamper["replay count"] = func(ts []*trial) { ts[0].fcts = ts[0].fcts[1:] }
			tamper["histogram p99"] = func(ts []*trial) { ts[0].stats.P99FCT *= 2 }
		}
		for what, f := range tamper {
			ts := make([]*trial, len(trials))
			for i, tr := range trials {
				c := *tr
				ts[i] = &c
			}
			f(ts)
			if ts[len(ts)-1] == nil {
				ts = ts[:len(ts)-1]
			}
			if bad := checkTrials(w, p, ts, ref); len(bad) == 0 {
				t.Errorf("%s: check passed a tampered result (%s)", w.name, what)
			}
		}
		lr := &layerRun{completions: trials[0].completed, fills: trials[0].fills + 1,
			frames: trials[0].frames, svcCompleted: trials[0].stats.Completed}
		if bad := checkWork(w, trials[0], lr); len(bad) != 1 {
			t.Errorf("%s: traced work check with one count off: %v", w.name, bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(benches))
	}
	for i, w := range benches {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, got, w.name, w.why)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// The calibration must do the same work on every call, and a run on a
// host as fast as the reference one must report its times unscaled.
func TestCalibrationIsFixedWork(t *testing.T) {
	if a, b := newCalibState().work(), newCalibState().work(); a != b {
		t.Errorf("calibration checksums %d and %d differ", a, b)
	}
	if got := onRefHost(3*time.Second, refCalib); got != 3*time.Second {
		t.Errorf("onRefHost at the reference calibration = %v, want 3s", got)
	}
	if got := onRefHost(3*time.Second, 2*refCalib); got != 1500*time.Millisecond {
		t.Errorf("onRefHost on a host half as fast = %v, want 1.5s", got)
	}
}
