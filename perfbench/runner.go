package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

const (
	// minReps is the fewest measured repetitions of an untraced run;
	// minTracedReps of each phase of a traced run.
	minReps       = 3
	minTracedReps = 2
	// minSetups is the fewest set-ups setup_s is the median of; set-up
	// is short, so extra set-ups run after the measured repetitions.
	minSetups = 15
	// untracedShare is the part of a traced invocation's time spent on
	// untraced repetitions, the base of trace.overhead_ratio.
	untracedShare = 0.4
)

// runner repeats one workload with one seed's inputs and checks every
// repetition against the first.
type runner struct {
	spec spec
	in   inputs
	seed int64

	first     *outcome
	setups    []setupTimes
	attempted int
	failed    int
	problems  []string
}

func newRunner(s spec, seed int64) *runner {
	return &runner{spec: s, in: generate(s, seed), seed: seed}
}

// rep is one measured repetition.
type rep struct {
	serve      serveTimes
	cpu        time.Duration
	out        outcome
	allocBytes uint64
}

// wallUSPerReq is the repetition's host wall time per simulated request.
func (r rep) wallUSPerReq() float64 {
	return float64(r.serve.total().Nanoseconds()) / 1e3 / float64(r.out.injected)
}

// cpuUSPerReq is the repetition's process CPU time per simulated request.
func (r rep) cpuUSPerReq() float64 {
	return float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.out.injected)
}

// processCPU is the user plus system CPU time of every thread so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hooks run around a traced repetition's serving phase only.
type hooks struct {
	before, after func() error
}

// repeat sets up and serves once, then checks the outcome: conservation,
// drained servers, and a digest equal to the first repetition's.
func (r *runner) repeat(tr *tracer, h *hooks) (rep, error) {
	// Every repetition starts from a collected heap, so the previous
	// repetition's garbage is not billed to this one.
	goruntime.GC()
	b, st, err := setup(r.spec, tr)
	if err != nil {
		return rep{}, err
	}
	r.setups = append(r.setups, st)
	if h != nil {
		if err := h.before(); err != nil {
			return rep{}, err
		}
	}
	before := readRuntime()
	c0 := processCPU()
	o, sv := serve(r.spec, b, r.in, tr)
	cpu := processCPU() - c0
	after := readRuntime()
	if h != nil {
		if err := h.after(); err != nil {
			return rep{}, err
		}
	}
	if r.first == nil {
		r.first = &o
	} else if o.digest != r.first.digest {
		o.problem("digest %016x differs from the first repetition's %016x", o.digest, r.first.digest)
	}
	r.attempted += o.injected
	if len(o.problems) > 0 {
		r.failed += o.injected
		for _, p := range o.problems {
			r.problems = append(r.problems, fmt.Sprintf("repetition %d: %s", len(r.setups), p))
		}
	} else {
		r.failed += o.lost()
	}
	return rep{serve: sv, cpu: cpu, out: o, allocBytes: after.allocBytes - before.allocBytes}, nil
}

// repeatFor repeats until budget has passed, at least n times.
func (r *runner) repeatFor(budget time.Duration, n int, tr *tracer, h *hooks) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) < n || time.Since(start) < budget {
		rp, err := r.repeat(tr, h)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rp)
	}
	return reps, nil
}

// topUpSetups runs set-ups without serving until there are minSetups.
func (r *runner) topUpSetups() error {
	for len(r.setups) < minSetups {
		goruntime.GC()
		_, st, err := setup(r.spec, nil)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, st)
	}
	return nil
}

func (r *runner) setupMedian(f func(setupTimes) time.Duration) float64 {
	var vs []float64
	for _, st := range r.setups {
		vs = append(vs, ms(f(st)))
	}
	return median(vs)
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	var vs []float64
	for _, rp := range reps {
		vs = append(vs, f(rp))
	}
	return median(vs)
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced(seconds float64) (report, error) {
	var rpt report
	reps, err := r.repeatFor(time.Duration(seconds*float64(time.Second)), minReps, nil, nil)
	if err != nil {
		return rpt, err
	}
	if err := r.topUpSetups(); err != nil {
		return rpt, err
	}
	o := r.first
	n := float64(o.injected)
	wallUS := medianOf(reps, rep.wallUSPerReq)
	rpt.note("%d repetitions, %d set-ups", len(reps), len(r.setups))
	rpt.note("derived (not gated): %.2f wall us per request, %.1f simulated s per wall s",
		wallUS, o.durationMS/1000/(wallUS*n/1e6))
	rpt.note("simulated p50 %.4f ms (mean of per-session medians)", o.p50MS)
	rpt.note("simulated violation ratio %.6f (shed and failed counted)", o.violationRatio())
	rpt.add("setup_s", r.setupMedian(func(st setupTimes) time.Duration { return st.cpu })/1e3, "s")
	rpt.add("host_us_per_req", medianOf(reps, rep.cpuUSPerReq), "us")
	rpt.add("host_alloc_kb_per_req", medianOf(reps, func(rp rep) float64 {
		return float64(rp.allocBytes) / 1024 / n
	}), "KiB")
	rpt.add("sim_mean_ms", o.meanMS, "ms")
	rpt.add("sim_p99_ms", o.p99MS, "ms")
	rpt.add("sim_avg_power_w", o.avgPowerW(), "W")
	rpt.add("sim_throughput_rps", o.throughputRPS(), "1/s")
	return rpt, nil
}

// traced measures the per-layer metrics: untraced repetitions first, as
// the base of the tracing overhead, then traced ones under a CPU profile.
func (r *runner) traced(o options, m machine) (report, error) {
	var rpt report
	budget := time.Duration(o.seconds * float64(time.Second))
	base, err := r.repeatFor(time.Duration(untracedShare*float64(budget)), minTracedReps, nil, nil)
	if err != nil {
		return rpt, err
	}

	tr := newTracer()
	attr := newAttribution()
	var prof bytes.Buffer
	var heap heapSampler
	var before, after runtimeSnap
	var gc runtimeSnap // summed deltas over the traced serving phases
	h := &hooks{
		before: func() error {
			prof.Reset()
			heap.start()
			before = readRuntime()
			return pprof.StartCPUProfile(&prof)
		},
		after: func() error {
			pprof.StopCPUProfile()
			after = readRuntime()
			heap.stop()
			gc.add(before, after)
			return attr.addProfile(prof.Bytes())
		},
	}
	reps, err := r.repeatFor(budget-time.Duration(untracedShare*float64(budget)), minTracedReps, tr, h)
	if err != nil {
		return rpt, err
	}
	if err := r.topUpSetups(); err != nil {
		return rpt, err
	}
	path, err := tr.write(o.out, r.spec.name, r.seed, m)
	if err != nil {
		return rpt, fmt.Errorf("writing spans: %w", err)
	}
	if attr.totalNS == 0 {
		r.problems = append(r.problems, "the CPU profile recorded no samples")
	} else if c := attr.covered(); c < 0.95 {
		r.problems = append(r.problems, fmt.Sprintf("profile attribution covers %.1f%% of samples, want >= 95%%", 100*c))
	}

	// Counts come from a traced repetition: only those count epochs and
	// sample the event queue at every period.
	out := reps[len(reps)-1].out
	nReps := float64(len(reps))
	single := r.spec.nodes == 1
	rpt.note("%d untraced + %d traced repetitions, %d set-ups; spans in %s", len(base), len(reps), len(r.setups), path)
	rpt.note("profile: %.0f ms CPU sampled, %.1f%% attributed; %s", float64(attr.totalNS)/1e6, 100*attr.covered(), attr.summary())

	rpt.add("core.compile_ms", r.setupMedian(func(st setupTimes) time.Duration { return st.compile }), "ms")
	rpt.add("core.dse_ms", r.setupMedian(func(st setupTimes) time.Duration { return st.dse }), "ms")
	rpt.add("runtime.session_ms", r.setupMedian(func(st setupTimes) time.Duration { return st.session }), "ms")
	rpt.add("runtime.inject_ms", medianOf(reps, func(rp rep) float64 { return ms(rp.serve.inject) }), "ms")
	var periods []float64
	for _, rp := range reps {
		for _, d := range rp.serve.periods {
			periods = append(periods, float64(d.Nanoseconds())/1e3)
		}
	}
	rpt.add("runtime.period_us.p50", quantile(periods, 0.5), "us")
	rpt.add("runtime.period_us.p99", quantile(periods, 0.99), "us")
	rpt.add("runtime.self_share", attr.share("runtime"), "ratio")
	rpt.add("runtime.violation_ratio", out.violationRatio(), "ratio")

	events := float64(out.simEvents)
	rpt.add("sim.events", events, "count")
	rpt.add("sim.events_per_req", events/float64(out.injected), "count")
	nsPerEvent := 0.0
	if single {
		nsPerEvent = medianOf(reps, func(rp rep) float64 { return float64(rp.serve.drain.Nanoseconds()) / events })
	}
	rpt.add("sim.ns_per_event", nsPerEvent, "ns")
	rpt.add("sim.pending_peak", float64(out.pendingPeak), "count")
	rpt.add("sim.self_share", attr.share("sim"), "ratio")

	plans := float64(out.cacheHits + out.cacheMisses)
	rpt.add("sched.plans", plans, "count")
	rpt.add("sched.cache_hit_ratio", ratio(float64(out.cacheHits), plans), "ratio")
	rpt.add("sched.self_share", attr.share("sched"), "ratio")
	rpt.add("sched.plancache_self_share", ratio(float64(attr.plancacheNS), float64(attr.totalNS)), "ratio")
	rpt.add("sched.ns_per_plan", ratio(float64(attr.ns["sched"]), plans*nReps), "ns")

	tasks := float64(out.gpuTasks + out.fpgaTasks)
	rpt.add("device.gpu_tasks", float64(out.gpuTasks), "count")
	rpt.add("device.fpga_tasks", float64(out.fpgaTasks), "count")
	rpt.add("device.gpu_tasks_per_launch", ratio(float64(out.gpuTasks), float64(out.gpuLaunches)), "ratio")
	rpt.add("device.reconfigs", float64(out.reconfigs), "count")
	rpt.add("device.self_share", attr.share("device"), "ratio")
	rpt.add("device.ns_per_task", ratio(float64(attr.ns["device"]), tasks*nReps), "ns")

	rpt.add("fleet.epochs", float64(out.epochs), "count")
	rpt.add("fleet.placement_imbalance", imbalance(out.placements), "ratio")
	rpt.add("fleet.shed", float64(out.fleetShed), "count")
	rpt.add("fleet.self_share", attr.share("fleet"), "ratio")

	rpt.add("telemetry.spans", float64(out.telSpans), "count")
	rpt.add("telemetry.self_share", attr.share("telemetry"), "ratio")

	rpt.add("go.gc_cycles", float64(gc.gcCycles)/nReps, "count")
	rpt.add("go.gc_cpu_share", ratio(gc.gcCPU, gc.totalCPU-gc.idleCPU), "ratio")
	rpt.add("go.heap_peak_mb", float64(heap.peak)/(1<<20), "MiB")
	rpt.add("go.background_share", ratio(float64(attr.backgroundNS), float64(attr.totalNS)), "ratio")

	rpt.add("trace.overhead_ratio", medianOf(reps, rep.cpuUSPerReq)/medianOf(base, rep.cpuUSPerReq), "ratio")
	rpt.add("trace.profile_coverage", attr.covered(), "ratio")
	return rpt, nil
}

// ratio is a/b, or 0 when b is 0 (a layer a workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the most-loaded node's placements over the mean (0 for a
// single node).
func imbalance(placements []int) float64 {
	if len(placements) < 2 {
		return 0
	}
	sum, hi := 0, 0
	for _, p := range placements {
		sum += p
		hi = max(hi, p)
	}
	return ratio(float64(hi)*float64(len(placements)), float64(sum))
}

// runtimeSnap is the Go runtime's cumulative counters at one instant.
type runtimeSnap struct {
	allocBytes, gcCycles     uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		idleCPU:    s[4].Value.Float64(),
	}
}

// add accumulates the change from a to b.
func (s *runtimeSnap) add(a, b runtimeSnap) {
	s.allocBytes += b.allocBytes - a.allocBytes
	s.gcCycles += b.gcCycles - a.gcCycles
	s.gcCPU += b.gcCPU - a.gcCPU
	s.totalCPU += b.totalCPU - a.totalCPU
	s.idleCPU += b.idleCPU - a.idleCPU
}

// heapSampler records the peak live-object heap while it runs.
type heapSampler struct {
	peak  uint64
	stopc chan struct{}
	wg    sync.WaitGroup
}

func (h *heapSampler) start() {
	h.stopc = make(chan struct{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.stopc)
	h.wg.Wait()
}
