package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"rackfab/internal/fabric"
	"rackfab/internal/faults"
	"rackfab/internal/fec"
	"rackfab/internal/fluid"
	"rackfab/internal/ringctl"
	"rackfab/internal/route"
	"rackfab/internal/service"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// span is one timed call into a layer, made from the benchmark's own code.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; spans nest by begin/end order. A tracer
// that is off records nothing and reads no clock, and its end returns 0.
type tracer struct {
	off    bool
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: clock()} }

func (t *tracer) begin(name string) {
	if t.off {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: clock().Sub(t.origin).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t.off {
		return 0
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = clock().Sub(t.origin).Nanoseconds()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// layerSelf is one layer's self time: its spans' durations minus the part
// their child spans cover.
type layerSelf struct {
	layer string
	self  time.Duration
	spans int
}

// selfTimes aggregates self time by layer, the span name's prefix before
// the first dot, sorted by layer name.
func (t *tracer) selfTimes() []layerSelf {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []layerSelf
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		k := sort.Search(len(out), func(j int) bool { return out[j].layer >= layer })
		if k == len(out) || out[k].layer != layer {
			out = append(out, layerSelf{})
			copy(out[k+1:], out[k:])
			out[k] = layerSelf{layer: layer}
		}
		out[k].self += time.Duration(s.End - s.Start - child[i])
		out[k].spans++
	}
	return out
}

// layerRun is what one traced replay measured: layer metric values and the
// work counts that must equal the untraced run's.
type layerRun struct {
	values map[string]float64
	// extra holds per-tick layer times that only serve-flaps has; they are
	// printed but are not BENCHMARK.json metrics.
	extra                                    map[string]float64
	completions, fills, frames, svcCompleted int64
	// fcts and injected are the serve replay's completed-flow FCTs and
	// injected flow count.
	fcts     []time.Duration
	injected int64
	// bases give the counts and times behind each ratio metric.
	bases []string
}

func newLayerRun() *layerRun {
	return &layerRun{values: map[string]float64{}, extra: map[string]float64{}}
}

func microseconds(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

const mib = 1 << 20

func fluidPermTraced(tr *tracer, seed int64, p params) (*layerRun, error) {
	lr := newLayerRun()
	tr.begin("bench.replay")
	tr.begin("topo.NewGrid")
	g := newGrid(p)
	lr.values["topo.build_s"] = tr.end().Seconds()
	tr.begin("workload.Permutation")
	specs := permutationSpecs(seed, g.NumNodes(), p.bytes)
	tr.end()
	st, err := runFluid(tr, lr, g, specs)
	tr.end()
	if err != nil {
		return nil, err
	}
	lr.completions, lr.fills = st.completions, st.fills
	if err := probeRouting(tr, lr, g); err != nil {
		return nil, err
	}
	_, err = runPacket(tr, lr, newGrid(p), permutationSpecs(seed, g.NumNodes(), p.bytes), seed, false, simDur(p.probeWindow))
	return lr, err
}

func packetCRCTraced(tr *tracer, seed int64, p params) (*layerRun, error) {
	lr := newLayerRun()
	tr.begin("bench.replay")
	tr.begin("topo.NewGrid")
	g := newGrid(p)
	lr.values["topo.build_s"] = tr.end().Seconds()
	tr.begin("workload.Shuffle")
	specs := shuffleSpecs(seed, g.NumNodes(), p.bytes)
	tr.end()
	st, err := runPacket(tr, lr, g, specs, seed, true, 0)
	tr.end()
	if err != nil {
		return nil, err
	}
	lr.completions, lr.frames = st.completions, st.frames
	if err := probeRouting(tr, lr, g); err != nil {
		return nil, err
	}
	_, err = runFluid(tr, lr, newGrid(p), shuffleSpecs(seed, g.NumNodes(), p.bytes))
	return lr, err
}

func serveFlapsTraced(tr *tracer, seed int64, p params) (*layerRun, error) {
	lr := newLayerRun()
	tr.begin("bench.replay")
	tr.begin("topo.NewGrid")
	g := newGrid(p)
	lr.values["topo.build_s"] = tr.end().Seconds()
	tr.begin("faults.PoissonFlaps")
	sched := flapSchedule(seed, g, p)
	tr.end()
	err := serveReplay(tr, lr, g, sched, seed, p)
	tr.end()
	if err != nil {
		return nil, err
	}
	if err := probeRouting(tr, lr, g); err != nil {
		return nil, err
	}
	src, err := workload.NewPoisson(arrivalSeed(seed), g.NumNodes(), p.rate, workload.WebSearch(), "svc")
	if err != nil {
		return nil, err
	}
	window := simDur(p.probeWindow)
	_, err = runPacket(tr, lr, newGrid(p), src.Next(sim.Time(window)), seed, false, window)
	return lr, err
}

// flapSchedule lowers the façade's PoissonFlaps schedule onto the graph the
// way Cluster.ApplyFaults does: instants truncated to nanoseconds.
func flapSchedule(seed int64, g *topo.Graph, p params) *faults.Schedule {
	fc := flapConfig(p)
	sched := faults.PoissonFlaps(sim.NewRNG(seed).Split("faults/poisson"), g, faults.FlapConfig{
		Flaps:      fc.Flaps,
		Start:      sim.Time(simDur(fc.Start)),
		MeanGap:    simDur(fc.MeanGap),
		MeanOutage: simDur(fc.MeanOutage),
	})
	events := append([]faults.Event(nil), sched.Events()...)
	for i := range events {
		events[i].At = truncNs(events[i].At)
	}
	return faults.New(events...)
}

// serveReplay runs the program's service driver over a span-traced fluid
// session for the soak's ticks, as Cluster.Serve does on the fluid engine.
func serveReplay(tr *tracer, lr *layerRun, g *topo.Graph, sched *faults.Schedule, seed int64, p params) error {
	src, err := workload.NewPoisson(arrivalSeed(seed), g.NumNodes(), p.rate, workload.WebSearch(), "svc")
	if err != nil {
		return err
	}
	arrivals := &tracedArrivals{ArrivalProcess: src, tr: tr}
	tgt := &serveTarget{tr: tr, cfg: fluid.Config{Graph: g, Faults: sched}}
	d, err := service.New(service.Config{Tick: simDur(serveTick), Source: arrivals}, tgt)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < p.ticks; i++ {
		tr.begin("service.Tick")
		err := d.Tick()
		tr.end()
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	st := d.Stats()
	snap := tgt.sess.Snapshot()
	lr.fcts, lr.injected = tgt.fcts, tgt.injected
	lr.completions, lr.svcCompleted = st.Completed, st.Completed
	lr.fills = snap.Solver.WarmHits + snap.Solver.WarmFallbacks + snap.Solver.ColdFills
	lr.values["fluid.session_s"] = tgt.session.Seconds()
	lr.values["fluid.advance_s"] = tgt.advance.Seconds()
	putFluidCounts(lr, snap.Solver, tgt.advance)
	lr.values["fluid.alloc_mib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	lr.values["service.completed"] = float64(st.Completed)
	lr.values["service.retained_peak"] = float64(st.RetainedPeak)
	perTick := func(d time.Duration) float64 { return microseconds(d) / float64(p.ticks) }
	lr.extra["workload.arrivals_us"] = perTick(arrivals.took)
	lr.extra["fluid.inject_us"] = perTick(tgt.inject)
	lr.extra["fluid.tick_advance_us"] = perTick(tgt.advance)
	lr.extra["fluid.retire_us"] = perTick(tgt.retire)
	return nil
}

// tracedArrivals puts a span on every Next of an arrival process.
type tracedArrivals struct {
	workload.ArrivalProcess
	tr   *tracer
	took time.Duration
}

func (a *tracedArrivals) Next(to sim.Time) []workload.FlowSpec {
	a.tr.begin("workload.Next")
	specs := a.ArrivalProcess.Next(to)
	a.took += a.tr.end()
	return specs
}

// serveTarget is the service driver's target over a fluid session with a
// span around every session call. Like the façade's fluid backend, it
// holds the first injected flows until the first advance builds the
// session. It keeps every completed flow's FCT, and sums the session's
// build, inject, advance and retire (TakeCompleted and Retire) times.
type serveTarget struct {
	tr       *tracer
	cfg      fluid.Config
	sess     *fluid.Session
	pending  []workload.FlowSpec
	injected int64
	fcts     []time.Duration

	session, inject, advance, retire time.Duration
}

func (t *serveTarget) Now() sim.Time {
	if t.sess == nil {
		return 0
	}
	return t.sess.Now()
}

func (t *serveTarget) Inject(specs []workload.FlowSpec) error {
	t.injected += int64(len(specs))
	if t.sess == nil {
		t.pending = append(t.pending, specs...)
		return nil
	}
	t.tr.begin("fluid.Inject")
	_, err := t.sess.Inject(specs)
	t.inject += t.tr.end()
	return err
}

func (t *serveTarget) RunFor(d sim.Duration) error {
	if t.sess == nil {
		t.tr.begin("fluid.NewSession")
		sess, err := fluid.NewSession(t.cfg, t.pending)
		t.session = t.tr.end()
		if err != nil {
			return err
		}
		t.sess, t.pending = sess, nil
	}
	t.tr.begin("fluid.Advance")
	err := t.sess.Advance(t.sess.Now().Add(d))
	t.advance += t.tr.end()
	return err
}

func (t *serveTarget) Drain() []service.Completion {
	if t.sess == nil {
		return nil
	}
	t.tr.begin("fluid.TakeCompleted")
	rs := t.sess.TakeCompleted()
	t.retire += t.tr.end()
	out := make([]service.Completion, len(rs))
	for i, r := range rs {
		out[i] = service.Completion{
			Src: r.Spec.Src, Dst: r.Spec.Dst, Bytes: r.Spec.Bytes,
			Start: r.Start, FCT: r.FCT, Hops: r.Hops, Label: r.Spec.Label,
		}
		t.fcts = append(t.fcts, nsOf(r.FCT))
	}
	return out
}

func (t *serveTarget) Retire() int {
	if t.sess == nil {
		return 0
	}
	t.tr.begin("fluid.Retire")
	n := t.sess.Retire()
	t.retire += t.tr.end()
	return n
}

func (t *serveTarget) Retained() int {
	if t.sess == nil {
		return len(t.pending)
	}
	return t.sess.RetainedFlows()
}

func (t *serveTarget) RetiredTotal() int64 {
	if t.sess == nil {
		return 0
	}
	return int64(t.sess.Retired())
}

func putFluidCounts(lr *layerRun, s fluid.SolverStats, advance time.Duration) {
	fills := s.WarmHits + s.WarmFallbacks + s.ColdFills
	lr.values["fluid.fills"] = float64(fills)
	lr.values["fluid.warm_hit_pct"] = s.WarmHitPct()
	if fills > 0 {
		lr.values["fluid.fill_us"] = microseconds(advance) / float64(fills)
	} else {
		lr.values["fluid.fill_us"] = 0
	}
	lr.bases = append(lr.bases, fmt.Sprintf("fluid.warm_hit_pct, fluid.fill_us: %d warm hits, %d fallbacks, %d cold of %d fills over %.6f s of advance",
		s.WarmHits, s.WarmFallbacks, s.ColdFills, fills, advance.Seconds()))
}

type runCounts struct{ completions, fills, frames int64 }

// runFluid builds a fluid session on specs and advances it to completion,
// as the façade's fluid backend does on RunUntilDone.
func runFluid(tr *tracer, lr *layerRun, g *topo.Graph, specs []workload.FlowSpec) (runCounts, error) {
	var m0, m1 runtime.MemStats
	tr.begin("fluid.NewSession")
	sess, err := fluid.NewSession(fluid.Config{Graph: g}, specs)
	lr.values["fluid.session_s"] = tr.end().Seconds()
	if err != nil {
		return runCounts{}, err
	}
	runtime.ReadMemStats(&m0)
	tr.begin("fluid.AdvanceUntilDone")
	err = sess.AdvanceUntilDone(sim.Time(simDur(fluidLimit)))
	advance := tr.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return runCounts{}, err
	}
	snap := sess.Snapshot()
	lr.values["fluid.advance_s"] = advance.Seconds()
	lr.values["fluid.alloc_mib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	putFluidCounts(lr, snap.Solver, advance)
	fills := snap.Solver.WarmHits + snap.Solver.WarmFallbacks + snap.Solver.ColdFills
	return runCounts{completions: int64(len(snap.Flows)), fills: fills}, nil
}

// runPacket builds the packet datapath on g, as the façade does, and runs
// specs through it: to completion when window is 0, else for window of
// simulated time. crc adds the Closed Ring Control with every policy on;
// without it the hosts send per-frame, like the CRC-driven datapath.
func runPacket(tr *tracer, lr *layerRun, g *topo.Graph, specs []workload.FlowSpec, seed int64, crc bool, window sim.Duration) (runCounts, error) {
	eng := sim.NewSized(4 * g.NumNodes())
	fcfg := fabric.DefaultConfig(g)
	fcfg.Seed = seed
	tr.begin("fabric.New")
	fab, err := fabric.New(eng, fcfg)
	lr.values["fabric.build_s"] = tr.end().Seconds()
	if err != nil {
		return runCounts{}, err
	}
	var ctl *ringctl.Controller
	if crc {
		ccfg := ringctl.DefaultConfig()
		ccfg.EnableFEC, ccfg.EnableRouting, ccfg.EnablePower = true, true, true
		ccfg.EnableBypass, ccfg.EnableReconfig = true, true
		tr.begin("ringctl.New")
		ctl = ringctl.New(eng, fab, ccfg)
		ctl.Start()
		tr.end()
	}
	tr.begin("fabric.InjectFlows")
	flows, err := fab.InjectFlows(specs)
	tr.end()
	if err != nil {
		return runCounts{}, err
	}
	if window == 0 {
		tr.begin("fabric.RunUntilDone")
		err = fab.RunUntilDone(sim.Time(simDur(packetLimit)))
	} else {
		tr.begin("fabric.RunFor")
		err = fab.RunFor(window)
	}
	run := tr.end()
	if err != nil {
		return runCounts{}, err
	}
	st := fab.Stats()
	var retx int64
	for _, f := range flows {
		retx += f.Retransmits()
	}
	events, frames := int64(eng.Executed()), st.Delivered.Value()
	lr.values["sim.events"] = float64(events)
	lr.values["sim.ns_per_event"] = perUnitNs(run, events)
	lr.values["fabric.frames"] = float64(frames)
	lr.values["fabric.ns_per_frame"] = perUnitNs(run, frames)
	lr.values["fabric.dropped"] = float64(st.Dropped.Value())
	lr.values["host.retransmits"] = float64(retx)
	lr.values["fabric.peak_queue_us"] = fab.PeakQueueDelay().Microseconds()
	lr.bases = append(lr.bases, fmt.Sprintf("sim.ns_per_event, fabric.ns_per_frame: %d events, %d frames over %.6f s of run", events, frames, run.Seconds()))
	lr.values["ringctl.decisions"] = 0
	if ctl != nil {
		lr.values["ringctl.decisions"] = float64(len(ctl.Decisions()))
	}
	return runCounts{completions: st.FlowsCompleted.Value(), frames: frames}, nil
}

// nsOf converts simulated picoseconds to a duration truncated to
// nanoseconds, as the façade reports every simulated time.
func nsOf(d sim.Duration) time.Duration {
	return time.Duration(int64(d) / int64(sim.Nanosecond))
}

func perUnitNs(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// probeRouting times the routing layers on the workload's graph: the FEC
// ladder lookup every link build makes, a full route-table build with the
// live heap it holds, and single-link repairs of that table.
func probeRouting(tr *tracer, lr *layerRun, g *topo.Graph) error {
	tr.begin("bench.probe-fec")
	const lookups = 16
	looks := make([]time.Duration, lookups)
	for i := range looks {
		tr.begin("fec.ProfileByName")
		_, ok := fec.ProfileByName("none")
		looks[i] = tr.end()
		if !ok {
			tr.end()
			return fmt.Errorf("fec ladder has no \"none\" profile")
		}
	}
	tr.end()
	lr.values["fec.lookup_us"] = microseconds(median(looks))

	tr.begin("bench.probe-route")
	defer tr.end()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr.begin("route.Build")
	tbl := route.Build(g, route.UniformCost)
	lr.values["route.build_s"] = tr.end().Seconds()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	lr.values["route.heap_mib"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / mib

	// Take down, repair, restore and repair again a spread of links; the
	// metric is the median take-down repair.
	edges := g.Edges()
	const repairs = 8
	times := make([]time.Duration, 0, repairs)
	for i := 0; i < repairs && i < len(edges); i++ {
		e := edges[i*len(edges)/repairs]
		e.SetEnabled(false)
		tr.begin("route.Repair")
		tbl.Repair(g, route.UniformCost, e)
		times = append(times, tr.end())
		e.SetEnabled(true)
		tr.begin("route.Repair")
		tbl.Repair(g, route.UniformCost, e)
		tr.end()
	}
	lr.values["route.repair_us"] = microseconds(median(times))
	return nil
}
