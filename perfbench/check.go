package main

import (
	"fmt"
	"slices"
	"time"

	"rackfab/internal/telemetry"
)

// checkTrials returns every correctness failure among a workload's
// untraced trials; trial i ran input i mod p.inputs. It checks that
//   - no trial errored, and no flow failed or was left unfinished;
//   - a batch workload completed every flow it should have injected;
//   - fluid-perm's FCT p99 on input 0 equals fluid.Run's on the same specs
//     (ref), so the façade matches the internal solver;
//   - serve-flaps' resumed service has the original's fingerprint, and its
//     internal replay injected and completed the same flows, with an exact
//     FCT p99 inside the façade histogram's p99 bucket;
//   - a trial repeating an input has the first run's fingerprint, so equal
//     seeds give byte-identical simulated results.
func checkTrials(w *bench, p params, trials []*trial, ref time.Duration) []string {
	var bad []string
	fail := func(i int, format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s trial %d: %s", w.name, i, fmt.Sprintf(format, args...)))
	}
	if len(trials) <= p.inputs {
		bad = append(bad, fmt.Sprintf("%s: %d trials over %d inputs; the determinism check needs a repeat", w.name, len(trials), p.inputs))
	}
	want := expectedFlows(w, p)
	for i, t := range trials {
		if t.runErr != nil {
			fail(i, "run: %v", t.runErr)
		}
		if t.failed > 0 {
			fail(i, "%d of %d flows failed or unfinished", t.failed, t.attempted)
		}
		if want > 0 && (t.attempted != want || t.completed != want) {
			fail(i, "%d of %d flows attempted, %d completed; want all %d", t.attempted, want, t.completed, want)
		}
		if i < p.inputs && t.fctP99 < 0 {
			fail(i, "over 1%% of %d flows unfinished: no FCT p99", t.attempted)
		}
		if w.facadeP99 != nil && i%p.inputs == 0 && t.fctP99 != ref {
			fail(i, "façade FCT p99 %v, fluid.Run %v", t.fctP99, ref)
		}
		if w.name == "serve-flaps" {
			if t.completed == 0 {
				fail(i, "no flow completed")
			}
			if t.resumed != t.fingerprint {
				fail(i, "resumed fingerprint %s, original %s", t.resumed, t.fingerprint)
			}
		}
		if w.replay != nil && i < p.inputs {
			bad = append(bad, checkReplay(w, i, t)...)
		}
		if first := trials[i%p.inputs]; t.fingerprint != first.fingerprint {
			fail(i, "fingerprint %s differs from trial %d's %s on the same input", t.fingerprint, i%p.inputs, first.fingerprint)
		}
	}
	return bad
}

// checkReplay compares a serve-flaps trial with its internal replay.
func checkReplay(w *bench, i int, t *trial) []string {
	var bad []string
	if t.replayInjected != t.attempted || int64(len(t.fcts)) != t.completed {
		bad = append(bad, fmt.Sprintf("%s trial %d: replay injected %d and completed %d flows, the service %d and %d",
			w.name, i, t.replayInjected, len(t.fcts), t.attempted, t.completed))
		return bad
	}
	// The histogram's p99 is the lower bound of a bucket 1/16 wide.
	exact := slices.Clone(t.fcts)
	slices.Sort(exact)
	x := exact[telemetry.NearestRank(len(exact), 99)]
	if h := t.stats.P99FCT; x < h || x > h+h/16+1 {
		bad = append(bad, fmt.Sprintf("%s trial %d: replay FCT p99 %v outside the service histogram's p99 bucket from %v",
			w.name, i, x, h))
	}
	return bad
}

// expectedFlows is how many flows a batch workload injects; 0 for the
// open-loop serve-flaps.
func expectedFlows(w *bench, p params) int64 {
	n := int64(p.width * p.height)
	switch w.name {
	case "fluid-perm":
		return n
	case "packet-crc":
		return n * (n - 1)
	}
	return 0
}

// checkWork returns a failure for every work count of the traced replay
// that differs from the untraced trial's.
func checkWork(w *bench, ref *trial, lr *layerRun) []string {
	var bad []string
	cmp := func(what string, untraced, traced int64) {
		if untraced != traced {
			bad = append(bad, fmt.Sprintf("%s traced run: %s %d, untraced %d", w.name, what, traced, untraced))
		}
	}
	cmp("flow completions", ref.completed, lr.completions)
	cmp("fluid.fills", ref.fills, lr.fills)
	cmp("fabric.frames", ref.frames, lr.frames)
	cmp("service.completed", ref.stats.Completed, lr.svcCompleted)
	return bad
}
