// Command perfbench is rackfab's repository benchmark. It runs one of
// three named workloads with a seed for a set number of seconds:
//
//	bash perfbench/run.sh --workload fluid-perm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the workload through the public rackfab façade
// with no tracing and reports the end-to-end metrics: means of host
// times over the repeats, scaled to a reference host by a calibration
// computation timed between them (see calib.go), and the simulated
// results, which every repeat must reproduce byte for byte. With --trace 1
// it alternates an untraced run, a run with the flight recorder on, and a
// replay rebuilt from the internal packages, once without spans and once
// with a span around every layer call, and reports the per-layer metrics
// (see layers.go) and the span overhead. The replay must do the untraced run's work exactly: equal
// flow completions, solver fills, delivered frames and service
// completions.
//
// Every line of standard output but the last is a readable report: each
// metric with its unit, the workload's fingerprint, and per-layer self
// times. The last line is one JSON object with the keys correct,
// attempted, failed and metrics. A failed correctness check still prints
// that line, with correct false, and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"rackfab/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// clock is the benchmark's only host-clock read.
func clock() time.Time {
	return time.Now() //det:wallclock host-time measurement of the benchmark itself; never reaches a simulated result or fingerprint
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fluid-perm, packet-crc or serve-flaps")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	secs := fs.Float64("seconds", 10, "measuring time")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	p := w.full
	budget := time.Duration(*secs * float64(time.Second))

	var res result
	switch *traced {
	case 0:
		res, err = runEndToEnd(stdout, w, p, *seed, budget)
	case 1:
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
		res, err = runTraced(stdout, w, p, *seed, budget, path)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd repeats the workload untraced, cycling through its inputs,
// until it has made at least one trial more than it has inputs and spent
// the budget, timing the calibration before the first trial and after
// every trial. Host times are means over all trials, scaled by the mean
// calibration to the reference host (see calib.go): with the calibration
// interleaved, the two means see the same host, and on this benchmark's
// shared hosts their ratio spread less over seeds than a ratio of
// medians. Peak RSS is a median over all trials. Simulated metrics come
// from the first trial of each input: the FCT p99 is the mean of the
// inputs' p99s, the SLO attainment pools their flows.
func runEndToEnd(out io.Writer, w *bench, p params, seed int64, budget time.Duration) (result, error) {
	start := clock()
	var (
		trials []*trial
		rss    []float64
		calibs = []time.Duration{calibrate()}
	)
	for len(trials) <= p.inputs || clock().Sub(start) < budget {
		k := len(trials) % p.inputs
		// Start every trial from a collected heap handed back to the OS and
		// a fresh peak-RSS count, so each trial's peak is its own.
		debug.FreeOSMemory()
		perTrial := resetPeakRSS() == nil
		t, err := w.trial(inputSeed(seed, k), p, false)
		if err != nil {
			return result{}, fmt.Errorf("%s trial %d: %w", w.name, len(trials), err)
		}
		trials = append(trials, t)
		if perTrial {
			t.rss = peakRSSMiB()
			rss = append(rss, t.rss)
		}
		calibs = append(calibs, calibrate())
	}
	elapsed := clock().Sub(start)
	if len(rss) < len(trials) {
		// Without a resettable count, fall back to the process's peak.
		fmt.Fprintln(out, "note peak_rss_mib: the kernel's peak-RSS count could not be reset; reporting the whole process's peak")
		rss = []float64{peakRSSMiB()}
	}
	var ref time.Duration
	if w.facadeP99 != nil {
		var err error
		if ref, err = w.facadeP99(inputSeed(seed, 0), p); err != nil {
			return result{}, fmt.Errorf("%s reference run: %w", w.name, err)
		}
	}
	inputs := trials[:p.inputs]
	if w.replay != nil {
		for k, t := range inputs {
			fcts, injected, err := w.replay(inputSeed(seed, k), p)
			if err != nil {
				return result{}, fmt.Errorf("%s replay of input %d: %w", w.name, k, err)
			}
			t.fcts, t.replayInjected = fcts, injected
			t.fctP99 = p99WithMisses(slices.Clone(fcts), t.attempted)
		}
	}
	bad := checkTrials(w, p, trials, ref)
	var (
		p99sum              float64
		attempted, attained int64
	)
	for _, t := range inputs {
		p99sum += microseconds(t.fctP99)
		attempted += t.attempted
		attained += t.attained
	}

	res := result{Correct: len(bad) == 0, Metrics: map[string]metricValue{}}
	var setups, runs, restores, ticks []time.Duration
	for _, t := range trials {
		res.Attempted += t.attempted
		res.Failed += t.failed
		setups, runs = append(setups, t.setup), append(runs, t.run)
		restores = append(restores, t.restore)
		ticks = append(ticks, t.ticks...)
	}
	calib := mean(calibs)
	values := map[string]float64{
		"setup_s":            onRefHost(mean(setups), calib).Seconds(),
		"run_s":              onRefHost(mean(runs), calib).Seconds(),
		"peak_rss_mib":       median(rss),
		"sim_fct_p99_us":     p99sum / float64(len(inputs)),
		"sim_slo_attain_pct": pct(attained, attempted),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}

	fmt.Fprintf(out, "workload %s seed %d: %d trials over %d inputs (%d flows) in %.1f s; host times are means over trials, simulated metrics over inputs\n",
		w.name, seed, len(trials), p.inputs, attempted, elapsed.Seconds())
	for k, t := range inputs {
		fmt.Fprintf(out, "fingerprint %s seed=%d input=%d %s\n", w.name, seed, k, t.fingerprint)
	}
	for i, t := range trials {
		fmt.Fprintf(out, "trial %d input %d: setup %.6f s, run %.6f s as measured, then calibration %.3f ms; peak RSS %.1f MiB, fingerprint %s\n",
			i, i%p.inputs, t.setup.Seconds(), t.run.Seconds(), milliseconds(calibs[i+1]), t.rss, t.fingerprint)
	}
	fmt.Fprintf(out, "calibration before trial 0: %.3f ms; mean of %d: %.3f ms\n", milliseconds(calibs[0]), len(calibs), milliseconds(calib))
	fmt.Fprintf(out, "means as measured: setup %.6f s, run %.6f s; the host times below are scaled by %v / %.3f ms to the reference host (see calib.go)\n",
		mean(setups).Seconds(), mean(runs).Seconds(), refCalib, milliseconds(calib))
	for _, d := range endToEnd {
		fmt.Fprintf(out, "metric %-20s %14.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	// failed_pct is 0 on a correct run, so it is carried by the JSON's
	// attempted and failed counts rather than gated as a metric.
	fmt.Fprintf(out, "metric %-20s %14.6f %% (%d of %d flows over all trials)\n",
		"failed_pct", pct(res.Failed, res.Attempted), res.Failed, res.Attempted)
	if len(ticks) > 0 {
		slices.Sort(ticks)
		fmt.Fprintf(out, "metric %-20s %14.6f us (n=%d ticks, first tick of each trial excluded)\n",
			"tick_p50_us", microseconds(onRefHost(ticks[telemetry.NearestRank(len(ticks), 50)], calib)), len(ticks))
		fmt.Fprintf(out, "metric %-20s %14.6f us (n=%d ticks)\n",
			"tick_p99_us", microseconds(onRefHost(ticks[telemetry.NearestRank(len(ticks), 99)], calib)), len(ticks))
		fmt.Fprintf(out, "metric %-20s %14.6f s (n=%d)\n", "restore_s", onRefHost(mean(restores), calib).Seconds(), len(restores))
		fmt.Fprintf(out, "metric %-20s %14.6f us (service histogram, input 0)\n",
			"sim_fct_p99_hist_us", microseconds(inputs[0].stats.P99FCT))
		fmt.Fprintf(out, "note in flight at the end of the soaks: %d flows (SLO misses, not failures)\n",
			attempted-completedFlows(inputs))
	}
	for _, b := range bad {
		fmt.Fprintln(out, "FAIL", b)
	}
	return res, nil
}

// runTraced makes rounds of an untraced, a flight-recorder, a span-free
// replay and a span-traced replay run of the workload's input 0 within the
// budget (at least one), and reports per-layer medians over rounds.
func runTraced(out io.Writer, w *bench, p params, seed int64, budget time.Duration, spanPath string) (result, error) {
	start := clock()
	var (
		rounds    []map[string]float64
		extras    []map[string]float64
		last      *tracer
		lastBases []string
		bad       []string
		res       = result{Metrics: map[string]metricValue{}}
	)
	// Rounds are long (the flight-recorder run alone can take many times
	// the untraced one), so stop once another would overrun the budget.
	for round := time.Duration(0); len(rounds) == 0 || clock().Sub(start)+round <= budget; {
		roundStart := clock()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ref, err := w.trial(inputSeed(seed, 0), p, false)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return result{}, fmt.Errorf("%s untraced run: %w", w.name, err)
		}
		runtime.GC()
		on, err := w.trial(inputSeed(seed, 0), p, true)
		if err != nil {
			return result{}, fmt.Errorf("%s flight-recorder run: %w", w.name, err)
		}
		runtime.GC()
		bareStart := clock()
		if _, err := w.traced(&tracer{off: true}, inputSeed(seed, 0), p); err != nil {
			return result{}, fmt.Errorf("%s replay without spans: %w", w.name, err)
		}
		bare := clock().Sub(bareStart)
		runtime.GC()
		tr := newTracer()
		tracedStart := clock()
		lr, err := w.traced(tr, inputSeed(seed, 0), p)
		if err != nil {
			return result{}, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		spanned := clock().Sub(tracedStart)
		if ref.runErr != nil || ref.failed > 0 {
			bad = append(bad, fmt.Sprintf("%s untraced run: %d of %d flows failed (%v)", w.name, ref.failed, ref.attempted, ref.runErr))
		}
		bad = append(bad, checkWork(w, ref, lr)...)
		res.Attempted += ref.attempted
		res.Failed += ref.failed

		v := lr.values
		f := ref.report.Faults
		v["route.repairs"] = float64(f.RouteRepairs)
		v["faults.capacity_events"] = float64(f.CapacityEvents)
		v["faults.reroutes"] = float64(f.Reroutes)
		v["faults.starved_episodes"] = float64(f.StarvedEpisodes)
		v["checkpoint.bytes"] = float64(ref.ckptBytes)
		if _, ok := v["service.completed"]; !ok {
			v["service.completed"], v["service.retained_peak"] = 0, 0
		}
		v["trace.on_ratio"] = on.run.Seconds() / ref.run.Seconds()
		v["trace.events"] = float64(on.traceEvents)
		v["trace.overwritten"] = float64(on.traceOverwr)
		v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		v["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		v["runtime.alloc_mib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
		v["bench.traced_ratio"] = spanned.Seconds() / bare.Seconds()
		lastBases = append(lr.bases,
			fmt.Sprintf("trace.on_ratio: run %.6f s with the flight recorder, %.6f s without", on.run.Seconds(), ref.run.Seconds()),
			fmt.Sprintf("bench.traced_ratio: replay %.6f s with spans, %.6f s without", spanned.Seconds(), bare.Seconds()))
		rounds = append(rounds, v)
		extras = append(extras, lr.extra)
		last = tr
		round = clock().Sub(roundStart)
	}
	for _, d := range perLayer {
		vals := make([]float64, 0, len(rounds))
		for _, r := range rounds {
			x, ok := r[d.name]
			if !ok {
				return result{}, fmt.Errorf("%s traced run did not measure %s", w.name, d.name)
			}
			vals = append(vals, x)
		}
		res.Metrics[d.name] = metricValue{Value: median(vals), Unit: d.unit}
	}
	res.Correct = len(bad) == 0

	fmt.Fprintf(out, "workload %s seed %d traced: %d rounds in %.1f s (values are medians over rounds)\n",
		w.name, seed, len(rounds), clock().Sub(start).Seconds())
	for _, d := range perLayer {
		fmt.Fprintf(out, "layer %-24s %16.6f %-5s moves: %s; not: %s\n", d.name, res.Metrics[d.name].Value, d.unit, d.moves, d.not)
	}
	if len(extras[0]) > 0 {
		for _, d := range serveExtras {
			vals := make([]float64, len(extras))
			for i, e := range extras {
				vals[i] = e[d.name]
			}
			fmt.Fprintf(out, "layer %-24s %16.6f %-5s per tick; moves: %s; not: %s\n", d.name, median(vals), d.unit, d.moves, d.not)
		}
	}
	fmt.Fprintf(out, "tracing overhead: replay with spans %.4fx the same replay without, flight recorder %.4fx\n",
		res.Metrics["bench.traced_ratio"].Value, res.Metrics["trace.on_ratio"].Value)
	for _, b := range lastBases {
		fmt.Fprintln(out, "base (last round)", b)
	}
	for _, s := range last.selfTimes() {
		fmt.Fprintf(out, "self %-10s %12.6f s over %d spans (last round)\n", s.layer, s.self.Seconds(), s.spans)
	}
	if err := writeSpans(spanPath, last.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(last.spans), spanPath)
	for _, b := range bad {
		fmt.Fprintln(out, "FAIL", b)
	}
	return res, nil
}

// completedFlows counts the completed flows of the inputs' first trials.
func completedFlows(inputs []*trial) int64 {
	var n int64
	for _, t := range inputs {
		n += t.completed
	}
	return n
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median of xs; xs is left unsorted.
func median[T time.Duration | float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []time.Duration) time.Duration {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// resetPeakRSS restarts the kernel's count of this process's peak resident
// set (Linux 4.0 and later).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set since it started or the
// last resetPeakRSS (getrusage maxrss, KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// onRefHost scales a host time measured in a run whose mean calibration
// time is calib to the reference host (see calib.go).
func onRefHost(d, calib time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refCalib) / float64(calib))
}

func milliseconds(d time.Duration) float64 { return float64(d) / 1e6 }
