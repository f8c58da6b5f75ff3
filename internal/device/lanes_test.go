package device

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"poly/internal/sim"
)

// gpuVariant is one implementation variant a lanes script submits.
type gpuVariant struct {
	batch  int
	lat    float64
	powerW float64
}

// laneVariants gives each kernel four variants, two of them of the same
// batch width with different latencies: the justifier must then be chosen
// among several widest lanes by FIFO order, not by lane position.
func laneVariants(ki int) []gpuVariant {
	base := 2 + float64(ki)
	return []gpuVariant{
		{batch: 1, lat: base, powerW: 140},
		{batch: 2, lat: base + 1.5, powerW: 160},
		{batch: 4, lat: base + 3, powerW: 180},
		{batch: 4, lat: base + 2.25, powerW: 175},
	}
}

// TestGPULanesMatchQueue drives GPUDevice and the single-FIFO reference
// (gpu_ref_test.go) with identical random scripts — submissions over four
// kernels × four variants with and without batch windows, event steps,
// clock advances, DVFS changes and failure toggles — and requires after
// every event the same launches (kernel, batch, cap, remainder, duration
// bits), the same per-task start/done/fail callbacks in order at the same
// instants, and the same NextFreeAt bits, QueueLen and event counts. Half
// the scripts cross the wrap of the GPU's sequence numbers, and together
// they must reach the hard cases of the lane rewrite.
func TestGPULanesMatchQueue(t *testing.T) {
	prev := LaunchTrace
	t.Cleanup(func() { LaunchTrace = prev })
	kernels := []string{"fe", "gmm", "dnn", "stem"}
	var multiLane, widestTies int
	var refs []*refGPU
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sg, sr := sim.New(), sim.New()
		g := NewGPU(sg, "gpu0", AMDW9100)
		ref := newRefGPU(sr, "gpu0", AMDW9100)
		if seed%2 == 0 {
			// Sequence numbers wrap a few hundred submissions in.
			g.nextSeq = math.MaxUint32 - 300
		}
		refs = append(refs, ref)
		fg, fr := &switchableFault{}, &switchableFault{}
		g.SetFaultHook(fg)
		ref.SetFaultHook(fr)
		var logG, logR []string
		traceTo := func(log *[]string) func(dev, kernel string, batch, cap, left int, durMS float64) {
			return func(dev, kernel string, batch, cap, left int, durMS float64) {
				*log = append(*log, fmt.Sprintf("launch %s %s batch=%d cap=%d left=%d dur=%x",
					dev, kernel, batch, cap, left, math.Float64bits(durMS)))
			}
		}
		LaunchTrace = traceTo(&logG)
		ref.trace = traceTo(&logR)
		task := func(log *[]string, id int, k string, v gpuVariant, window float64) *Task {
			ev := func(what string) func(sim.Time) {
				return func(at sim.Time) {
					*log = append(*log, fmt.Sprintf("task %d %s @%x", id, what, math.Float64bits(float64(at))))
				}
			}
			return &Task{Kernel: k, ImplID: fmt.Sprintf("%s|b%d|%g", k, v.batch, v.lat),
				LatencyMS: v.lat, IntervalMS: v.lat, Batch: v.batch, PowerW: v.powerW, WindowMS: window,
				OnStart: ev("start"), OnDone: ev("done"), OnFail: ev("fail")}
		}
		nextID := 0
		for step := 0; step < 2000; step++ {
			var what string
			switch r := rng.Float64(); {
			case r < 0.55:
				what = "submit"
				ki := rng.Intn(len(kernels))
				vs := laneVariants(ki)
				// Narrow variants dominate, so wide justifiers often sit
				// behind more than a launch's worth of narrow work.
				vi := []int{0, 0, 0, 1, 1, 2, 3}[rng.Intn(7)]
				window := 0.0
				if rng.Intn(3) == 0 {
					window = 5 * rng.Float64()
				}
				g.Submit(task(&logG, nextID, kernels[ki], vs[vi], window))
				ref.Submit(task(&logR, nextID, kernels[ki], vs[vi], window))
				nextID++
			case r < 0.80:
				what = "step"
				sg.Step()
				sr.Step()
			case r < 0.90:
				what = "advance"
				to := sg.Now() + sim.Time(3*rng.Float64())
				sg.RunUntil(to)
				sr.RunUntil(to)
			case r < 0.96:
				what = "dvfs"
				lvl := rng.Intn(len(g.spec.DVFS))
				g.SetDVFS(lvl)
				ref.SetDVFS(lvl)
			default:
				what = "failure"
				fg.down = !fg.down
				fr.down = fg.down
			}
			if !slices.Equal(logG, logR) {
				i := 0
				for i < len(logG) && i < len(logR) && logG[i] == logR[i] {
					i++
				}
				t.Fatalf("seed %d step %d after %s: logs diverge at entry %d: lanes %q, reference %q",
					seed, step, what, i, logG[i:min(i+3, len(logG))], logR[i:min(i+3, len(logR))])
			}
			if got, want := g.NextFreeAt(), ref.NextFreeAt(); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("seed %d step %d after %s: NextFreeAt %v, reference %v", seed, step, what, got, want)
			}
			if g.QueueLen() != ref.QueueLen() || sg.Pending() != sr.Pending() || sg.Fired() != sr.Fired() {
				t.Fatalf("seed %d step %d after %s: queue %d / pending %d / fired %d, reference %d / %d / %d",
					seed, step, what, g.QueueLen(), sg.Pending(), sg.Fired(), ref.QueueLen(), sr.Pending(), sr.Fired())
			}
			for _, ki := range g.order {
				k := &g.kernels[ki]
				if len(k.lanes) >= 2 {
					multiLane++
				}
				widest, at := 0, 0
				for _, l := range k.lanes {
					switch {
					case l.batch > widest:
						widest, at = l.batch, 1
					case l.batch == widest:
						at++
					}
				}
				if widest > 1 && at >= 2 {
					widestTies++
				}
			}
		}
		fg.down, fr.down = false, false
		sg.Run()
		sr.Run()
		if !slices.Equal(logG, logR) {
			t.Fatalf("seed %d: logs differ after the final drain", seed)
		}
		if g.queued != 0 || len(g.order) != 0 {
			t.Fatalf("seed %d: drained GPU keeps %d tasks in %d kernels", seed, g.queued, len(g.order))
		}
	}
	var reseq, skips, flushes int
	for _, r := range refs {
		reseq += r.resequencedWaits
		skips += r.justifierSkips
		flushes += r.multiKernelFlushes
	}
	t.Logf("hard cases: %d re-sequencing window waits, %d justifier skips, %d multi-kernel flushes, %d multi-lane kernels, %d widest-lane ties",
		reseq, skips, flushes, multiLane, widestTies)
	if reseq == 0 || skips == 0 || flushes == 0 || multiLane == 0 || widestTies == 0 {
		t.Fatal("the scripts missed a hard case (see the counts above)")
	}
}
