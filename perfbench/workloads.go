package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"rackfab"
	"rackfab/internal/fluid"
	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// params sizes one workload: full is the benchmark size, tiny the
// self-test size.
type params struct {
	width, height int
	// bytes is the flow size: per node on fluid-perm, per pair on
	// packet-crc.
	bytes int64
	// ticks, rate and flaps shape the serve-flaps soak: its length in 1 ms
	// ticks, Poisson arrivals per second, and link flaps across the soak.
	ticks int
	rate  float64
	flaps int
	// probeWindow is the simulated time the traced run drives the packet
	// datapath for on a fluid workload's traffic.
	probeWindow time.Duration
	// inputs is how many input sets, each from its own seed derived from
	// the run's, one run pools its simulated metrics over; host-time trials
	// cycle through them.
	inputs int
}

// bench is one named benchmark input. trial runs it once through the
// public façade; traced rebuilds it from the internal layers with a span
// around every layer call.
type bench struct {
	name, why  string
	full, tiny params
	trial      func(seed int64, p params, record bool) (*trial, error)
	traced     func(tr *tracer, seed int64, p params) (*layerRun, error)
	// facadeP99 recomputes the simulated FCT p99 outside the façade, for
	// the façade ≡ internal check; nil where the workload has none.
	facadeP99 func(seed int64, p params) (time.Duration, error)
	// replay reruns the workload on the internal packages and returns the
	// FCTs of its completed flows and how many it injected; set where the
	// façade reports no per-flow results.
	replay func(seed int64, p params) ([]time.Duration, int64, error)
}

var benches = []*bench{
	{
		name:  "fluid-perm",
		why:   "one 1 MiB-per-node permutation on a 32x32 fluid grid: route build and max-min refill under one burst; packet, service, checkpoint idle",
		full:  params{width: 32, height: 32, bytes: 1 << 20, probeWindow: 5 * time.Microsecond, inputs: 24},
		tiny:  params{width: 4, height: 4, bytes: 64 << 10, probeWindow: 20 * time.Microsecond, inputs: 2},
		trial: fluidPermTrial, traced: fluidPermTraced, facadeP99: fluidPermReference,
	},
	{
		name:  "packet-crc",
		why:   "16 KiB shuffle on an 8x8 packet grid under the Closed Ring Control: per-frame sim, fabric, FEC and ringctl; fluid, service idle",
		full:  params{width: 8, height: 8, bytes: 16 << 10, inputs: 16},
		tiny:  params{width: 3, height: 3, bytes: 4 << 10, inputs: 2},
		trial: packetCRCTrial, traced: packetCRCTraced,
	},
	{
		name:  "serve-flaps",
		why:   "5000 1 ms ticks of 20k flows/s Poisson websearch load with link flaps on a 16x16 fluid grid, then checkpoint and resume",
		full:  params{width: 16, height: 16, ticks: 5000, rate: 20000, flaps: 100, probeWindow: time.Millisecond, inputs: 4},
		tiny:  params{width: 4, height: 4, ticks: 400, rate: 5000, flaps: 2, probeWindow: time.Millisecond, inputs: 2},
		trial: serveFlapsTrial, traced: serveFlapsTraced, replay: serveFlapsReplay,
	},
}

func lookup(name string) (*bench, error) {
	for _, w := range benches {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(benches))
	for i, w := range benches {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Simulated-time limits of the batch runs; both finish far inside them.
const (
	fluidLimit  = time.Minute
	packetLimit = time.Second
	serveTick   = time.Millisecond
)

// trial is one run of a workload through the façade.
type trial struct {
	setup, run time.Duration
	// ticks holds the host time of every serve-flaps Tick after the first;
	// restore is the host time of ResumeService.
	ticks   []time.Duration
	restore time.Duration
	runErr  error
	// rss is the trial's peak resident set in MiB, where it can be told
	// apart from the process's.
	rss float64

	attempted, completed, failed, attained int64
	// fcts are the simulated FCTs of the completed flows; fctP99 is their
	// p99 over the attempted flows (see p99WithMisses). serve-flaps fills
	// fcts from an internal replay, as its façade keeps only a histogram.
	fcts   []time.Duration
	fctP99 time.Duration
	// replayInjected is how many flows the serve-flaps replay injected.
	replayInjected int64

	// fingerprint hashes every simulated result of the trial; resumed is
	// the resumed service's fingerprint (serve-flaps only).
	fingerprint, resumed string

	// Work counts the traced run must reproduce, and layer counts read
	// from the façade.
	fills, frames int64
	report        rackfab.Report
	stats         rackfab.ServiceStats
	ckptBytes     int
	traceEvents   int64
	traceOverwr   int64
}

func gridConfig(seed int64, p params, engine rackfab.Engine, record bool) rackfab.Config {
	cfg := rackfab.Config{
		Topology: rackfab.Grid, Width: p.width, Height: p.height,
		Engine: engine, Seed: seed,
	}
	if record {
		cfg.Trace = &rackfab.TraceConfig{}
	}
	return cfg
}

func fluidPermTrial(seed int64, p params, record bool) (*trial, error) {
	t0 := clock()
	c, err := rackfab.New(gridConfig(seed, p, rackfab.EngineFluid, record))
	if err != nil {
		return nil, err
	}
	flows, err := c.Inject(rackfab.PermutationTraffic(c, p.bytes))
	if err != nil {
		return nil, err
	}
	t1 := clock()
	runErr := c.RunUntilDone(fluidLimit)
	t2 := clock()
	t := batchTrial(c, flows)
	t.setup, t.run, t.runErr = t1.Sub(t0), t2.Sub(t1), runErr
	return t, nil
}

func packetCRCTrial(seed int64, p params, record bool) (*trial, error) {
	cfg := gridConfig(seed, p, rackfab.EnginePacket, record)
	cfg.Control = rackfab.ControlOn()
	t0 := clock()
	c, err := rackfab.New(cfg)
	if err != nil {
		return nil, err
	}
	flows, err := c.Inject(rackfab.ShuffleTraffic(c, p.bytes))
	if err != nil {
		return nil, err
	}
	t1 := clock()
	runErr := c.RunUntilDone(packetLimit)
	t2 := clock()
	t := batchTrial(c, flows)
	t.setup, t.run, t.runErr = t1.Sub(t0), t2.Sub(t1), runErr
	return t, nil
}

// batchTrial reads a finished batch run's results from its flow handles
// and report. Failed and unfinished flows stay in every denominator.
func batchTrial(c *rackfab.Cluster, flows []*rackfab.Flow) *trial {
	rep := c.Report()
	t := &trial{attempted: int64(len(flows)), report: rep}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n", rep)
	fcts := make([]time.Duration, 0, len(flows))
	for i, f := range flows {
		fct, err := f.CompletionTime()
		if f.Failed() || err != nil {
			t.failed++
			fct = -1
		} else {
			t.completed++
			fcts = append(fcts, fct)
		}
		src, dst := f.Endpoints()
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", i, src, dst, f.Bytes(), fct, f.Retransmits())
	}
	t.fingerprint = fmt.Sprintf("%016x", h.Sum64())
	t.fcts, t.fctP99 = fcts, p99WithMisses(fcts, t.attempted)
	// Report.SLO counts completed flows only; dividing its attained count
	// by the attempted flows makes every failure a miss.
	t.attained = rep.SLO.Attained
	t.fills = rep.Solver.WarmHits + rep.Solver.WarmFallbacks + rep.Solver.ColdFills
	t.frames = rep.FramesDelivered
	if tr := c.Trace(); tr != nil {
		t.traceEvents, t.traceOverwr = tr.Events(), tr.Overwritten()
	}
	return t
}

// p99WithMisses is the nearest-rank p99 of n attempted flows of which only
// those in done finished; the unfinished rank above every finished one, so
// the result is -1 when more than 1% did not finish. It sorts done.
func p99WithMisses(done []time.Duration, n int64) time.Duration {
	if n == 0 {
		return -1
	}
	slices.Sort(done)
	r := telemetry.NearestRank(int(n), 99)
	if r >= len(done) {
		return -1
	}
	return done[r]
}

// inputSeed derives the seed of a run's k-th input set.
func inputSeed(seed int64, k int) int64 { return seed*64 + int64(k) }

// serveConfigs returns the serve-flaps cluster and service configs.
func serveConfigs(seed int64, p params, record bool) (rackfab.Config, rackfab.ServeConfig) {
	return gridConfig(seed, p, rackfab.EngineFluid, record), rackfab.ServeConfig{
		Tick: serveTick,
		Arrivals: rackfab.ArrivalSpec{
			Process: "poisson", Seed: arrivalSeed(seed), Rate: p.rate, Sizes: "websearch",
		},
	}
}

// arrivalSeed keeps every benchmark seed, 0 included, distinct from the
// arrival process's default.
func arrivalSeed(seed int64) uint64 { return uint64(seed) + 1 }

// flapConfig spreads the soak's flaps over its whole length.
func flapConfig(p params) rackfab.FlapConfig {
	soak := time.Duration(p.ticks) * serveTick
	return rackfab.FlapConfig{
		Flaps:      p.flaps,
		MeanGap:    soak / time.Duration(p.flaps),
		MeanOutage: 5 * time.Millisecond,
	}
}

func serveFlapsTrial(seed int64, p params, record bool) (*trial, error) {
	cfg, scfg := serveConfigs(seed, p, record)
	t0 := clock()
	c, err := rackfab.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.ApplyFaults(rackfab.PoissonFlaps(c, flapConfig(p))); err != nil {
		return nil, err
	}
	svc, err := c.Serve(scfg)
	if err != nil {
		return nil, err
	}
	if err := svc.Tick(); err != nil {
		return nil, err
	}
	t1 := clock()
	t := &trial{ticks: make([]time.Duration, 0, p.ticks)}
	for i := 1; i < p.ticks && t.runErr == nil; i++ {
		s := clock()
		t.runErr = svc.Tick()
		t.ticks = append(t.ticks, clock().Sub(s))
	}
	t2 := clock()
	t.setup, t.run = t1.Sub(t0), t2.Sub(t1)

	st := svc.Stats()
	t.stats, t.report = st, c.Report()
	t.attempted, t.completed, t.attained = st.Injected, st.Completed, st.Attained
	t.fills = t.report.Solver.WarmHits + t.report.Solver.WarmFallbacks + t.report.Solver.ColdFills
	t.fingerprint = hashString(svc.Fingerprint())
	if tr := c.Trace(); tr != nil {
		t.traceEvents, t.traceOverwr = tr.Events(), tr.Overwritten()
		return t, nil
	}
	data, err := svc.Checkpoint()
	if err != nil {
		return nil, err
	}
	t.ckptBytes = len(data)
	t3 := clock()
	resumed, err := rackfab.ResumeService(cfg, scfg, data)
	if err != nil {
		return nil, err
	}
	t.restore = clock().Sub(t3)
	t.resumed = hashString(resumed.Fingerprint())
	return t, nil
}

func hashString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// serveFlapsReplay reruns the serve-flaps soak through the service driver
// on a fluid session and returns every completed flow's exact FCT.
func serveFlapsReplay(seed int64, p params) ([]time.Duration, int64, error) {
	g := newGrid(p)
	lr := newLayerRun()
	if err := serveReplay(&tracer{off: true}, lr, g, flapSchedule(seed, g, p), seed, p); err != nil {
		return nil, 0, err
	}
	return lr.fcts, lr.injected, nil
}

// fluidPermReference runs fluid-perm's specs through fluid.Run directly
// and returns its FCT p99, which the façade's must equal.
func fluidPermReference(seed int64, p params) (time.Duration, error) {
	g := newGrid(p)
	res, err := fluid.Run(fluid.Config{Graph: g}, permutationSpecs(seed, g.NumNodes(), p.bytes))
	if err != nil {
		return 0, err
	}
	return nsOf(res.P99FCT), nil
}

// The helpers below rebuild the façade's inputs from the internal
// packages: the same graph options, RNG streams and time conversions, so
// the traced run does exactly the untraced run's work.

func newGrid(p params) *topo.Graph {
	return topo.NewGrid(p.width, p.height, topo.Options{})
}

func permutationSpecs(seed int64, nodes int, bytes int64) []workload.FlowSpec {
	rng := sim.NewRNG(seed).Split("traffic/permutation")
	return viaFacade(workload.Permutation(rng, nodes, workload.Fixed(bytes)))
}

func shuffleSpecs(seed int64, nodes int, bytes int64) []workload.FlowSpec {
	rng := sim.NewRNG(seed).Split("traffic/shuffle")
	return viaFacade(workload.Shuffle(rng, workload.ShuffleConfig{
		Mappers:      workload.Range(nodes),
		Reducers:     workload.Range(nodes),
		BytesPerPair: bytes,
		Jitter:       10 * sim.Microsecond,
	}))
}

// viaFacade truncates arrival instants to the façade's nanosecond
// resolution, as a round trip through rackfab.FlowSpec does.
func viaFacade(specs []workload.FlowSpec) []workload.FlowSpec {
	for i := range specs {
		specs[i].At = truncNs(specs[i].At)
	}
	return specs
}

func truncNs(t sim.Time) sim.Time {
	return sim.Time(int64(t) / int64(sim.Nanosecond) * int64(sim.Nanosecond))
}

func simDur(d time.Duration) sim.Duration {
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond
}
