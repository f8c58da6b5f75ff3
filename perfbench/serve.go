package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"poly/internal/apps"
	"poly/internal/cluster"
	"poly/internal/core"
	"poly/internal/dse"
	"poly/internal/fleet"
	"poly/internal/runtime"
	"poly/internal/sim"
)

// setupTimes is the wall time of one set-up, by stage, and the process
// CPU time of the whole set-up.
type setupTimes struct {
	compile, dse, session time.Duration
	cpu                   time.Duration
}

// bundle is one repetition's serving state: the single-node sessions, or
// the fleet, built and waiting for their first arrival.
type bundle struct {
	sims    []*sim.Simulator
	servers []*runtime.Server
	fleet   *fleet.Fleet
}

// setup compiles ASR from its annotated source, runs a cold design-space
// exploration for Setting I, and builds the workload's sessions or
// fleet: everything up to the first arrival.
func setup(s spec, tr *tracer) (*bundle, setupTimes, error) {
	var st setupTimes
	root := tr.begin("setup", 0)
	defer tr.end(root)
	c0 := processCPU()

	sp := tr.begin("compile", root)
	t0 := time.Now()
	fw, err := core.Compile(apps.ASRProgram())
	st.compile = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, st, fmt.Errorf("compile: %w", err)
	}

	sp = tr.begin("dse", root)
	t0 = time.Now()
	// A fresh Framework has no cached spaces, but the per-kernel spaces
	// are memoized process-wide: drop them so every set-up explores cold.
	dse.ResetCache()
	bench, err := fw.Bench(cluster.HeterPoly, cluster.SettingI)
	st.dse = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, st, fmt.Errorf("dse: %w", err)
	}

	sp = tr.begin("session", root)
	t0 = time.Now()
	b := &bundle{}
	opts := runtime.Options{WarmupMS: s.warmupMS()}
	if s.nodes > 1 {
		b.fleet, err = fleet.New(bench, fleet.Options{
			Nodes:         s.nodes,
			Policy:        fleet.LeastUtil,
			Runtime:       opts,
			WithTelemetry: true,
		})
	} else {
		for i := 0; i < s.sessions && err == nil; i++ {
			// NewShardSession with a fresh simulator and no prefix is
			// exactly Bench.NewSession, with the simulator kept visible.
			var sv *runtime.Server
			sm := sim.New()
			sv, _, err = bench.NewShardSession(sm, "", opts)
			b.sims = append(b.sims, sm)
			b.servers = append(b.servers, sv)
		}
	}
	st.session = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, st, fmt.Errorf("session: %w", err)
	}
	st.cpu = processCPU() - c0
	return b, st, nil
}

// serveTimes is the wall time of one repetition's serving phases. drain
// includes summarize where the two cannot be separated (the fleet, and
// untraced single-node sessions, which call Server.Collect).
type serveTimes struct {
	inject, drain, summarize time.Duration
	periods                  []time.Duration
}

func (t serveTimes) total() time.Duration { return t.inject + t.drain + t.summarize }

// serve injects the generated arrivals, drains and summarizes. Untraced,
// it calls the public entry points real callers use (Server.Collect,
// Fleet.Collect). Traced, single-node sessions are drained with the same
// Simulator.RunUntil / Server.Drained / Server.Summarize loop Collect
// runs, so each governor period gets its own span.
func serve(s spec, b *bundle, in inputs, tr *tracer) (outcome, serveTimes) {
	if b.fleet != nil {
		return serveFleet(b.fleet, in, tr)
	}
	var st serveTimes
	o := outcome{injected: in.total}
	h := fnv.New64a()
	root := tr.begin("serve", 0)
	for i, sv := range b.servers {
		sm := b.sims[i]
		sp := tr.begin("inject", root)
		t0 := time.Now()
		for _, at := range in.arrivals[i] {
			sv.Inject(at)
		}
		st.inject += time.Since(t0)
		tr.end(sp)
		o.pendingPeak = max(o.pendingPeak, sm.Pending())

		var res runtime.Result
		if tr == nil {
			t0 = time.Now()
			res = sv.Collect()
			st.drain += time.Since(t0)
		} else {
			period := sim.Time(sv.GovernorPeriodMS())
			horizon := sm.Now() + period
			for done := false; !done; horizon += period {
				done = sv.Drained()
				sp = tr.begin("drain.period", root)
				t0 = time.Now()
				sm.RunUntil(horizon)
				d := time.Since(t0)
				tr.end(sp)
				st.drain += d
				st.periods = append(st.periods, d)
				o.pendingPeak = max(o.pendingPeak, sm.Pending())
			}
			sp = tr.begin("summarize", root)
			t0 = time.Now()
			res = sv.Summarize()
			st.summarize += time.Since(t0)
			tr.end(sp)
		}
		if !sv.Drained() {
			o.problem("session %d: not drained after collect", i)
		}
		o.addResult(res)
		o.simEvents += sm.Fired()
		hits, misses := sv.PlannerCacheStats()
		o.cacheHits += hits
		o.cacheMisses += misses
		addBits(h, sv.LatencySamples()...)
		addBits(h, res.EnergyMJ)
		// A probe sequence holds one finished session at a time.
		b.sims[i], b.servers[i] = nil, nil
	}
	tr.end(root)
	n := float64(len(b.servers))
	o.p50MS /= n
	o.p99MS /= n
	o.meanMS /= n
	o.digest = h.Sum64()
	o.checkConservation()
	return o, st
}

// addResult pools one session's (or one node's) summary into o. The
// percentiles are summed here and averaged by the caller.
func (o *outcome) addResult(r runtime.Result) {
	o.arrivals += r.Arrivals
	o.completed += r.Completed
	o.shed += r.Shed
	o.failed += r.FailedRequests
	o.planErrors += r.PlanErrors
	o.measured += r.Measured
	o.violations += r.Violations
	o.p50MS += r.P50MS
	o.p99MS += r.P99MS
	o.meanMS += r.MeanMS
	o.energyMJ += r.EnergyMJ
	o.durationMS += r.DurationMS
	o.gpuTasks += r.GPUTasks
	o.fpgaTasks += r.FPGATasks
	o.gpuLaunches += r.GPULaunches
	o.reconfigs += r.Reconfigs
}

// instantCounter forwards arrivals to a fleet and counts distinct arrival
// instants: each is one barrier epoch of the parallel coordinator.
type instantCounter struct {
	tgt     runtime.ArrivalTarget
	last    sim.Time
	started bool
	n       int
}

func (c *instantCounter) Inject(at sim.Time) {
	if !c.started || at != c.last {
		c.n++
		c.last, c.started = at, true
	}
	c.tgt.Inject(at)
}

// serveFleet injects the diurnal arrivals into the fleet and collects
// it. Fleet.Collect drains and summarizes in one call.
func serveFleet(f *fleet.Fleet, in inputs, tr *tracer) (outcome, serveTimes) {
	var st serveTimes
	o := outcome{injected: in.total}
	root := tr.begin("serve", 0)
	var tgt runtime.ArrivalTarget = f
	var counter *instantCounter
	if tr != nil {
		counter = &instantCounter{tgt: f}
		tgt = counter
	}
	sp := tr.begin("inject", root)
	t0 := time.Now()
	for _, at := range in.arrivals[0] {
		tgt.Inject(at)
	}
	st.inject = time.Since(t0)
	tr.end(sp)

	sp = tr.begin("collect", root)
	t0 = time.Now()
	res := f.Collect()
	st.drain = time.Since(t0)
	tr.end(sp)
	tr.end(root)

	if counter != nil {
		o.epochs = counter.n
	}
	if res.Injected != in.total {
		o.problem("fleet: %d injected but the router saw %d", in.total, res.Injected)
	}
	h := fnv.New64a()
	for i, nr := range res.PerNode {
		if nr.Placements != nr.Arrivals {
			o.problem("fleet: node %s placed %d but %d arrived", nr.Name, nr.Placements, nr.Arrivals)
		}
		if !f.Server(i).Drained() {
			o.problem("fleet: node %s not drained after collect", nr.Name)
		}
		o.addResult(nr.Result)
		hits, misses := f.Server(i).PlannerCacheStats()
		o.cacheHits += hits
		o.cacheMisses += misses
		o.placements = append(o.placements, nr.Placements)
		if rec := f.Recorder(i); rec != nil {
			o.telSpans += rec.SpanTotal()
		}
	}
	// Router sheds never reach a node: they arrive at the fleet only.
	o.arrivals += res.Shed
	o.shed += res.Shed
	o.fleetShed = res.Shed
	// The aggregate is the fleet-level SLO view; duration is the longest
	// node's span, not the sum.
	o.p50MS, o.p99MS, o.meanMS = res.P50MS, res.P99MS, res.MeanMS
	o.durationMS = res.DurationMS
	addBits(h, f.LatencySamples()...)
	addBits(h, res.EnergyMJ)
	o.digest = h.Sum64()
	o.checkConservation()
	return o, st
}
