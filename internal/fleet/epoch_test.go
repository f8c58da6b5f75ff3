package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"poly/internal/fault"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// sameFleetRun fails unless two fleet outcomes are bitwise identical:
// router accounting, per-node placements and outcomes, aggregate
// percentiles and energy, and every latency sample in node order. This
// is the comparison surface the epoch-coordinator gates use.
func sameFleetRun(t *testing.T, what string, a, b Result, latA, latB []float64) {
	t.Helper()
	if a.Injected != b.Injected || a.Shed != b.Shed || a.NodeDownEvents != b.NodeDownEvents {
		t.Fatalf("%s: router accounting diverged: injected %d/%d, shed %d/%d, down %d/%d",
			what, a.Injected, b.Injected, a.Shed, b.Shed, a.NodeDownEvents, b.NodeDownEvents)
	}
	if len(a.PerNode) != len(b.PerNode) {
		t.Fatalf("%s: node counts diverged: %d vs %d", what, len(a.PerNode), len(b.PerNode))
	}
	for n := range a.PerNode {
		na, nb := a.PerNode[n], b.PerNode[n]
		if na.Placements != nb.Placements {
			t.Fatalf("%s: node %d placements diverged: %d vs %d", what, n, na.Placements, nb.Placements)
		}
		if na.Health != nb.Health {
			t.Fatalf("%s: node %d health diverged: %v vs %v", what, n, na.Health, nb.Health)
		}
		sameRun(t, what+" node "+na.Name, na.Result, nb.Result, nil, nil)
	}
	for _, f := range [][2]float64{
		{a.P50MS, b.P50MS}, {a.P99MS, b.P99MS}, {a.MeanMS, b.MeanMS},
		{a.EnergyMJ, b.EnergyMJ}, {a.DurationMS, b.DurationMS},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s: aggregate diverged: %v vs %v", what, f[0], f[1])
		}
	}
	if len(latA) != len(latB) {
		t.Fatalf("%s: latency sample counts diverged: %d vs %d", what, len(latA), len(latB))
	}
	for i := range latA {
		if math.Float64bits(latA[i]) != math.Float64bits(latB[i]) {
			t.Fatalf("%s: latency sample %d diverged: %v vs %v", what, i, latA[i], latB[i])
		}
	}
}

// TestFleetParallelBitIdentity is the epoch coordinator's equivalence
// gate: for every policy × node count × fault setting, a fleet drained
// by per-shard simulators under the epoch coordinator must be
// bit-identical to the same fleet on one shared clock — the reference
// semantics, which also serve every run under a default telemetry sink.
func TestFleetParallelBitIdentity(t *testing.T) {
	b := asrBench(t)
	const (
		rps        = 100.0
		durationMS = 5000.0
		seed       = 13
	)

	run := func(t *testing.T, nodes int, pol Policy, shared, faults bool) (Result, []float64) {
		t.Helper()
		ro := runtime.Options{WarmupMS: 0.2 * durationMS}
		if faults {
			board := "gpu0"
			if nodes > 1 {
				board = "n1/gpu0"
			}
			ro.Faults = &fault.Config{Seed: seed, Script: []fault.Window{
				{Board: board, Kind: fault.Failure, Start: 2000, End: 1e9},
			}}
		}
		f, err := newFleet(b, Options{Nodes: nodes, Policy: pol, Runtime: ro}, shared)
		if err != nil {
			t.Fatal(err)
		}
		if (f.shared != nil) != shared {
			t.Fatalf("shared clock = %v, want %v", f.shared != nil, shared)
		}
		runtime.NewWorkload(seed).InjectPoisson(f, rps, 0, sim.Time(durationMS))
		res := f.Collect()
		fleetAccounting(t, res)
		return res, f.LatencySamples()
	}

	for _, nodes := range []int{1, 2, 4} {
		for _, pol := range Policies() {
			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("%dn-%s", nodes, pol)
				if faults {
					name += "-faults"
				}
				what := name
				t.Run(name, func(t *testing.T) {
					ref, refLat := run(t, nodes, pol, true, faults)
					if ref.Completed == 0 {
						t.Fatal("shared-clock reference completed nothing; the gate has no teeth")
					}
					got, gotLat := run(t, nodes, pol, false, faults)
					sameFleetRun(t, what, ref, got, refLat, gotLat)
				})
			}
		}
	}
}

// TestFleetEpochBoundaryArrivals is the property test for the
// coordinator's trickiest interleavings: arrival times that land exactly
// on epoch boundaries — governor-period multiples, where the sequence
// barrier must order routing between the shard's pre-run governor tick
// and its run-scheduled events at the same instant — plus duplicate
// times and out-of-order injection (exercising the stable sort's
// injection-order tie rule). Randomized over several seeds; every trace
// must drain bit-identically per shard and on the shared clock.
func TestFleetEpochBoundaryArrivals(t *testing.T) {
	b := asrBench(t)

	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		// Half the arrivals sit exactly on 500 ms governor edges
		// (duplicates likely), the rest at arbitrary instants; the whole
		// trace is injected in shuffled order.
		const n = 200
		times := make([]sim.Time, 0, n)
		for i := 0; i < n/2; i++ {
			times = append(times, sim.Time(500*(1+rng.Intn(8))))
		}
		for i := n / 2; i < n; i++ {
			times = append(times, sim.Time(rng.Float64()*4000))
		}
		rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })

		run := func(shared bool) (Result, []float64) {
			t.Helper()
			f, err := newFleet(b, Options{Nodes: 4, Policy: LeastUtil,
				Runtime: runtime.Options{WarmupMS: 500}}, shared)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range times {
				f.Inject(at)
			}
			res := f.Collect()
			fleetAccounting(t, res)
			return res, f.LatencySamples()
		}
		ref, refLat := run(true)
		if ref.Completed == 0 {
			t.Fatal("shared-clock reference completed nothing")
		}
		got, gotLat := run(false)
		sameFleetRun(t, "epoch-boundary", ref, got, refLat, gotLat)
	}
}

// TestFleetDefaultSinkKeepsSharedClock: a process-wide default sink is
// one recorder for every shard, so the fleet must put the shards on one
// shared clock while it is installed — the recorder then sees spans
// finish in time order across nodes, which the per-shard drain (one
// shard after another up to each arrival) would not give it — and the
// run must stay bit-identical to the same fleet without the sink.
func TestFleetDefaultSinkKeepsSharedClock(t *testing.T) {
	b := asrBench(t)
	const (
		rps        = 160.0
		durationMS = 5000.0
		seed       = 5
	)
	run := func() (Result, []float64) {
		t.Helper()
		f, err := New(b, Options{Nodes: 4, Policy: LeastUtil,
			Runtime: runtime.Options{WarmupMS: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		runtime.NewWorkload(seed).InjectPoisson(f, rps, 0, sim.Time(durationMS))
		res := f.Collect()
		fleetAccounting(t, res)
		return res, f.LatencySamples()
	}
	ref, refLat := run()

	rec := telemetry.New()
	runtime.SetDefaultTelemetry(rec)
	t.Cleanup(func() { runtime.SetDefaultTelemetry(nil) })
	got, gotLat := run()

	spans := rec.Spans()
	if len(spans) < 100 {
		t.Fatalf("recorder kept %d spans; the order check has no teeth", len(spans))
	}
	// ArrivedMS+LatencyMS rebuilds the finish instant only to within a
	// rounding step, so order is checked to 1e-9 ms; the disorder a
	// per-shard drain produces is whole events apart.
	const eps = 1e-9
	prev := math.Inf(-1)
	for i, sp := range spans {
		if sp.Dropped {
			continue
		}
		done := sp.ArrivedMS + sp.LatencyMS
		if done < prev-eps {
			t.Fatalf("span %d finished at %v ms, before its predecessor at %v ms", i, done, prev)
		}
		prev = done
	}
	sameFleetRun(t, "default sink vs none", ref, got, refLat, gotLat)
}
