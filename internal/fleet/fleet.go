// Package fleet shards Poly across N leaf nodes behind a top-level
// router — the paper's datacenter story (Section VI-C) lifted from one
// node to a cluster. Each shard is a full cluster.Node + runtime.Server
// pair (its own boards, planner, plan cache, governor, and health
// machinery), and a Router admits every arrival by placing it on a node
// using pluggable policies fed by the same per-node
// allocated/allocatable/utilization signals the telemetry resource
// gauges export.
//
// Each shard runs on its own simulator. Collect drains them with a
// conservative epoch coordinator, stepped inline on one goroutine: the
// router is the only cross-shard edge and every arrival time is known
// at injection, so each shard advances alone up to the next routed
// arrival, stops on a (time, sequence) barrier, and the router places
// that arrival before the next epoch (see epoch.go). While a
// process-wide default telemetry sink is installed, every shard runs on
// one shared simulator clock instead, so the one recorder sees a single
// time-ordered timeline; results are the same either way.
//
// Determinism: placements, per-node outcomes, and the aggregate are
// pure functions of the arrival trace — the per-shard drain is
// bit-identical to the shared clock, enforced by
// TestFleetParallelBitIdentity. Router bit-transparency: a 1-node fleet
// assembles the identical node (empty board-name prefix) and fires the
// identical event sequence as a direct runtime.Server session, enforced
// by TestFleetRouterBitTransparency the same way the telemetry, fault,
// and batching layers are gated.
//
// Node count is an actuator: SetTargetNodes drains shards from the top
// so a trace-driven autoscaler can scale the serving fleet against load
// (the ROADMAP's energy-proportionality item), with drained nodes
// completing in-flight work before the governor parks them.
package fleet

import (
	"fmt"
	"strings"

	"poly/internal/cluster"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// Options configures a fleet.
type Options struct {
	// Nodes is the shard count (1 if zero).
	Nodes int
	// Policy is the router's placement policy (Binpack if zero).
	Policy Policy
	// NodeCapsW optionally skews per-node power caps (and with them
	// board counts): entry i overrides the bench's cap for shard i. A
	// zero entry keeps the bench default. Len may be shorter than Nodes.
	NodeCapsW []float64
	// Runtime is the per-shard server configuration. Runtime.Telemetry
	// must be nil — a single sink cannot hold N nodes' gauges; set
	// WithTelemetry to give every shard its own recorder instead.
	Runtime runtime.Options
	// WithTelemetry attaches a dedicated telemetry.Recorder to every
	// shard (reachable via Recorder), plus a fleet-level rollup
	// (Rollup) aggregating the per-node resource gauges.
	WithTelemetry bool
}

// shard is one leaf node and its server, plus the router's view of it.
type shard struct {
	idx  int
	name string
	// sim is the clock the shard's events run on: the shard's own, or
	// the fleet's shared simulator under a default telemetry sink.
	sim *sim.Simulator
	// mark is the shard's sequence barrier, taken when the per-shard
	// drain starts (see drainEpochs).
	mark uint64
	node *cluster.Node
	srv  *runtime.Server
	rec  *telemetry.Recorder

	draining   bool
	lastHealth NodeHealth
}

// Fleet owns N shards and routes arrivals onto them. It implements
// runtime.ArrivalTarget, so the same Workload generators that drive a
// single server drive a fleet.
type Fleet struct {
	// shared is the one clock every shard runs on under a default
	// telemetry sink; nil when each shard owns its simulator.
	shared *sim.Simulator
	shards []*shard
	policy Policy

	// arrivals collects injected arrival times for the per-shard drain;
	// the coordinator stable-sorts them at Collect (preserving injection
	// order among equal times, matching the shared clock's FIFO rule)
	// and routes them epoch by epoch. cursor is the next unrouted index.
	arrivals []sim.Time
	cursor   int

	// rr is the spread policy's round-robin cursor.
	rr int
	// scratch is the router's reusable candidate buffer.
	scratch []candidate

	// pending counts injected arrivals whose routing event has not
	// fired yet; the drain loop runs while any shard or this counter is
	// non-empty.
	pending        int
	injected       int
	shed           int
	nodeDownEvents int
	placements     []int

	rollup *telemetry.FleetRollup
}

// New provisions a fleet of opts.Nodes shards of the given bench, each
// on a fresh simulator of its own. While runtime.HasDefaultTelemetry
// reports a process-wide sink, the shards share one simulator instead:
// the per-shard drain advances shards one after another, and a recorder
// shared by all of them would see their timelines out of order. With
// Nodes == 1 the shard is assembled exactly like a direct session (empty
// board-name prefix), which the router bit-transparency gate relies on.
func New(b runtime.Bench, opts Options) (*Fleet, error) {
	return newFleet(b, opts, runtime.HasDefaultTelemetry())
}

// newFleet is New with the clock choice explicit: shared puts every
// shard on one simulator, the reference the equivalence tests compare
// the per-shard drain against.
func newFleet(b runtime.Bench, opts Options, shared bool) (*Fleet, error) {
	n := opts.Nodes
	if n <= 0 {
		n = 1
	}
	if opts.Runtime.Telemetry != nil {
		return nil, fmt.Errorf("fleet: Runtime.Telemetry must be nil (use WithTelemetry for per-shard recorders)")
	}
	f := &Fleet{
		policy:     opts.Policy,
		placements: make([]int, n),
	}
	if shared {
		f.shared = sim.New()
	}
	if opts.WithTelemetry {
		f.rollup = telemetry.NewFleetRollup()
	}
	for i := 0; i < n; i++ {
		prefix := ""
		if n > 1 {
			prefix = fmt.Sprintf("n%d/", i)
		}
		bi := b
		if i < len(opts.NodeCapsW) && opts.NodeCapsW[i] > 0 {
			bi.PowerCapW = opts.NodeCapsW[i]
		}
		ro := opts.Runtime
		sh := &shard{idx: i, name: fmt.Sprintf("n%d", i), sim: f.shared}
		if sh.sim == nil {
			sh.sim = sim.New()
		}
		if opts.WithTelemetry {
			sh.rec = telemetry.New()
			ro.Telemetry = sh.rec
		}
		srv, node, err := bi.NewShardSession(sh.sim, prefix, ro)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		sh.node, sh.srv = node, srv
		f.shards = append(f.shards, sh)
		if f.rollup != nil {
			f.rollup.AddNode(sh.name, sh.rec)
		}
	}
	return f, nil
}

// Nodes returns the shard count.
func (f *Fleet) Nodes() int { return len(f.shards) }

// Server returns shard i's server (panics on a bad index, like a slice).
func (f *Fleet) Server(i int) *runtime.Server { return f.shards[i].srv }

// Node returns shard i's provisioned node.
func (f *Fleet) Node(i int) *cluster.Node { return f.shards[i].node }

// Recorder returns shard i's telemetry recorder (nil without
// WithTelemetry).
func (f *Fleet) Recorder(i int) *telemetry.Recorder { return f.shards[i].rec }

// Rollup returns the fleet-level telemetry rollup (nil without
// WithTelemetry). SyncHealth has been applied as of the last Collect.
func (f *Fleet) Rollup() *telemetry.FleetRollup { return f.rollup }

// NodeHealthState returns the router's current belief about shard i.
func (f *Fleet) NodeHealthState(i int) NodeHealth { return f.shards[i].health() }

// DrainNode stops new placements on shard i; in-flight and already-
// placed work completes normally. Idempotent.
func (f *Fleet) DrainNode(i int) { f.shards[i].draining = true }

// UndrainNode returns a drained shard to the placement pool.
func (f *Fleet) UndrainNode(i int) { f.shards[i].draining = false }

// SetTargetNodes is the node-count actuator: shards below n are
// undrained, shards at or above n are drained. An autoscaler calls this
// against the live load; the router rebalances future arrivals onto the
// surviving shards immediately.
func (f *Fleet) SetTargetNodes(n int) {
	for i, sh := range f.shards {
		sh.draining = i >= n
	}
}

// ActiveNodes counts shards currently accepting placements.
func (f *Fleet) ActiveNodes() int {
	n := 0
	for _, sh := range f.shards {
		if !sh.draining {
			n++
		}
	}
	return n
}

// Inject schedules one arrival at the given absolute time; the routing
// decision is deferred to the arrival instant so it reads the fleet's
// live state. The time is recorded for the epoch coordinator, which
// routes it between epochs; on a shared clock the router rides it as an
// event instead. Implements runtime.ArrivalTarget.
func (f *Fleet) Inject(at sim.Time) {
	f.pending++
	if f.shared != nil {
		f.shared.AtCall(at, fireRoute, f)
		return
	}
	f.arrivals = append(f.arrivals, at)
}

// fireRoute is one arrival's routing event on the shared clock.
func fireRoute(_ sim.Time, a any) {
	a.(*Fleet).routeOne()
}

// routeOne routes a single arrival at the current instant: pick a node
// by policy and health, hand the arrival to its server, or shed it at
// the fleet when no node is eligible (the fast-rejection rationale of
// admission shedding, lifted to the cluster). The epoch coordinator
// calls it with every shard's clock stopped at the arrival time, so the
// policy reads the same signals it would on a shared clock.
func (f *Fleet) routeOne() {
	f.pending--
	f.injected++
	sh := f.pick()
	if sh == nil {
		f.shed++
		return
	}
	f.placements[sh.idx]++
	sh.srv.RouteArrival()
}

// drained reports whether every arrival has been routed and every shard
// has admitted and completed its share.
func (f *Fleet) drained() bool {
	if f.pending > 0 {
		return false
	}
	for _, sh := range f.shards {
		if !sh.srv.Drained() {
			return false
		}
	}
	return true
}

// NodeResult is one shard's outcome with its fleet-level attribution.
type NodeResult struct {
	Name string
	// Placements counts arrivals the router placed on this node (==
	// the node's Result.Arrivals; kept separate so the invariant is
	// checkable from the outside).
	Placements int
	// Health is the router's belief at collection time.
	Health NodeHealth
	runtime.Result
}

// Result summarizes one fleet serving run.
type Result struct {
	Nodes  int
	Policy string
	// Injected counts arrivals offered to the router; Shed those with
	// no eligible node. Injected == sum(PerNode Placements) + Shed.
	Injected int
	Shed     int
	// NodeDownEvents counts router-observed node-down transitions.
	NodeDownEvents int
	PerNode        []NodeResult

	// Aggregate QoS over every shard (the fleet-level SLO view).
	Arrivals, Completed, Measured int
	Violations, PlanErrors        int
	P50MS, P99MS, MeanMS          float64
	BoundMS                       float64
	EnergyMJ, AvgPowerW           float64
	DurationMS, ThroughputRPS     float64
	FleetShedTotal                int // fleet-level + per-node admission sheds
}

// ViolationRatio is the fraction of measured requests over the bound.
func (r Result) ViolationRatio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Measured)
}

// String renders the fleet report: the aggregate first, then one line
// per node with its placement share and health.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet     %d nodes, policy %s: %d injected, %d placed, %d shed, %d node-down events\n",
		r.Nodes, r.Policy, r.Injected, r.Injected-r.Shed, r.Shed, r.NodeDownEvents)
	fmt.Fprintf(&b, "aggregate %d completed, %d measured; p50 %.2f ms p99 %.2f ms, violations %d (%.2f%%); %.1f mJ (avg %.1f W), %.1f req/s",
		r.Completed, r.Measured, r.P50MS, r.P99MS, r.Violations, 100*r.ViolationRatio(),
		r.EnergyMJ, r.AvgPowerW, r.ThroughputRPS)
	for _, nr := range r.PerNode {
		share := 0.0
		if placed := r.Injected - r.Shed; placed > 0 {
			share = float64(nr.Placements) / float64(placed)
		}
		fmt.Fprintf(&b, "\n  %-4s %-8s %5d placed (%4.1f%%)  p99 %7.2f ms  viol %5.2f%%  %6.1f W  %d GPU / %d FPGA tasks",
			nr.Name, nr.Health, nr.Placements, 100*share, nr.P99MS,
			100*nr.ViolationRatio(), nr.AvgPowerW, nr.GPUTasks, nr.FPGATasks)
	}
	return b.String()
}

// Collect drains the fleet until every shard is idle, then summarizes
// each shard and the aggregate. Call once, after all arrivals are
// injected. The drain loop advances in governor-period steps exactly
// like Server.Collect — for a 1-node fleet it reduces to the identical
// RunUntil sequence, which the bit-transparency gate checks. The epoch
// coordinator replays the same sequence per shard (see drainEpochs), so
// the per-shard drain and the shared clock are bit-identical.
func (f *Fleet) Collect() Result {
	period := sim.Time(f.shards[0].srv.GovernorPeriodMS())
	if f.shared == nil {
		f.drainEpochs(period)
	} else {
		horizon := f.shared.Now() + period
		for !f.drained() {
			f.shared.RunUntil(horizon)
			horizon += period
		}
		f.shared.RunUntil(horizon)
	}

	res := Result{
		Nodes:          len(f.shards),
		Policy:         f.policy.String(),
		Injected:       f.injected,
		Shed:           f.shed,
		NodeDownEvents: f.nodeDownEvents,
		FleetShedTotal: f.shed,
	}
	var lat sim.Sample
	for i, sh := range f.shards {
		nr := NodeResult{
			Name:       sh.name,
			Placements: f.placements[i],
			Health:     sh.health(),
			Result:     sh.srv.Summarize(),
		}
		res.PerNode = append(res.PerNode, nr)
		res.Arrivals += nr.Arrivals
		res.Completed += nr.Completed
		res.Measured += nr.Measured
		res.Violations += nr.Violations
		res.PlanErrors += nr.PlanErrors
		res.EnergyMJ += nr.EnergyMJ
		res.FleetShedTotal += nr.Shed
		res.BoundMS = nr.BoundMS
		if nr.DurationMS > res.DurationMS {
			res.DurationMS = nr.DurationMS
		}
		for _, v := range sh.srv.LatencySamples() {
			lat.Add(v)
		}
	}
	res.P50MS = lat.Percentile(50)
	res.P99MS = lat.P99()
	res.MeanMS = lat.Mean()
	if res.DurationMS > 0 {
		res.AvgPowerW = res.EnergyMJ / res.DurationMS
		res.ThroughputRPS = float64(res.Completed) / res.DurationMS * 1000
	}
	if f.rollup != nil {
		for _, sh := range f.shards {
			f.rollup.SetNodeHealth(sh.name, sh.health().String())
		}
	}
	return res
}

// LatencySamples returns every shard's post-warmup latencies
// concatenated in node order — the bitwise-comparison surface the
// determinism gates use.
func (f *Fleet) LatencySamples() []float64 {
	var out []float64
	for _, sh := range f.shards {
		out = append(out, sh.srv.LatencySamples()...)
	}
	return out
}
