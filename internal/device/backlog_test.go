package device

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"poly/internal/sim"
)

// scanNextFreeAt is the reference for GPUDevice.NextFreeAt: the O(queue)
// scan that walks the live queue in FIFO (sequence) order and compresses
// it into per-kernel groups in first-seen order on every call. The device
// derives those groups from its lanes; the two must agree bit for bit.
func scanNextFreeAt(g *GPUDevice) sim.Time {
	at := g.sim.Now()
	if g.running && g.freeAt > at {
		at = g.freeAt
	}
	lvl := g.spec.DVFS[g.level]
	var groups []gpuGroup
	for _, t := range g.appendQueued(nil) {
		gi := -1
		for i := range groups {
			if groups[i].kernel == t.Kernel {
				gi = i
				break
			}
		}
		if gi < 0 {
			groups = append(groups, gpuGroup{kernel: t.Kernel, cap: 1})
			gi = len(groups) - 1
		}
		gr := &groups[gi]
		if t.Batch > gr.cap {
			gr.cap = t.Batch
		}
		if t.LatencyMS > gr.lat {
			gr.lat = t.LatencyMS
		}
		gr.n++
	}
	for i := range groups {
		gr := &groups[i]
		launches := (gr.n + gr.cap - 1) / gr.cap
		at += sim.Time(float64(launches) * gr.lat / lvl.FreqScale)
	}
	return at
}

// switchableFault is a FaultHook whose board-down state the test flips
// by hand; executions and bitstream loads are never perturbed.
type switchableFault struct{ down bool }

func (f *switchableFault) ExecScale(string, string, sim.Time) float64   { return 1 }
func (f *switchableFault) BoardDown(string, sim.Time) bool              { return f.down }
func (f *switchableFault) ReconfigAborts(string, string, sim.Time) bool { return false }

// TestGPUBacklogMatchesScan drives randomized sequences of submissions,
// launches, batch-window waits, DVFS changes and board failures through a
// GPU and checks after every event that the lane-derived backlog prices
// NextFreeAt exactly like the full queue scan.
func TestGPUBacklogMatchesScan(t *testing.T) {
	kernels := []string{"fe", "gmm", "dnn", "stem"}
	batches := []int{1, 1, 2, 4, 8, 16}
	var windowWaits, flushes int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		g := NewGPU(s, "gpu0", AMDW9100)
		fault := &switchableFault{}
		g.SetFaultHook(fault)
		check := func(step int, what string) {
			t.Helper()
			got, want := g.NextFreeAt(), scanNextFreeAt(g)
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("seed %d step %d after %s: NextFreeAt %v, queue scan %v (queue %d)",
					seed, step, what, got, want, g.queued)
			}
		}
		for step := 0; step < 1500; step++ {
			var what string
			switch r := rng.Float64(); {
			case r < 0.55:
				what = "submit"
				k := kernels[rng.Intn(len(kernels))]
				task := &Task{Kernel: k, ImplID: fmt.Sprintf("%s|b%d", k, rng.Intn(3)),
					LatencyMS: 1 + 9*rng.Float64(), Batch: batches[rng.Intn(len(batches))],
					PowerW: 150}
				if rng.Intn(3) == 0 {
					task.WindowMS = 5 * rng.Float64()
				}
				task.IntervalMS = task.LatencyMS
				g.Submit(task)
			case r < 0.80:
				what = "step"
				s.Step()
			case r < 0.90:
				what = "advance"
				s.RunUntil(s.Now() + sim.Time(3*rng.Float64()))
			case r < 0.96:
				what = "dvfs"
				g.SetDVFS(rng.Intn(len(g.spec.DVFS)))
			default:
				what = "failure"
				if !fault.down && g.queued > 0 {
					flushes++
				}
				fault.down = !fault.down
			}
			if g.pending && !g.running && g.queued > 0 {
				windowWaits++
			}
			check(step, what)
		}
		fault.down = false
		s.Run()
		check(-1, "drain")
		if g.queued != 0 || len(g.order) != 0 {
			t.Fatalf("seed %d: drained GPU keeps %d tasks in %d kernels", seed, g.queued, len(g.order))
		}
	}
	if windowWaits == 0 || flushes == 0 {
		t.Fatalf("sequences never exercised a window wait (%d) or a failure flush (%d)", windowWaits, flushes)
	}
}

// BenchmarkGPUNextFreeAt prices the EST snapshot one admit takes of a GPU
// at a shallow and at a saturated queue depth (four kernels interleaved).
func BenchmarkGPUNextFreeAt(b *testing.B) {
	for _, depth := range []int{10, 2500} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := sim.New()
			g := NewGPU(s, "gpu0", AMDW9100)
			for i := 0; i < depth; i++ {
				k := fmt.Sprintf("k%d", i%4)
				g.Submit(&Task{Kernel: k, ImplID: k, LatencyMS: 2, IntervalMS: 2, Batch: 8, PowerW: 150})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nextFreeSink = g.NextFreeAt()
			}
		})
	}
}

// nextFreeSink keeps the benchmarked call from being optimized away.
var nextFreeSink sim.Time

// resubmitter puts every completed task straight back on its GPU, so a
// benchmark's queue holds its depth across launches.
type resubmitter struct{ g *GPUDevice }

func (r resubmitter) TaskStarted(*Task, sim.Time)  {}
func (r resubmitter) TaskDone(t *Task, _ sim.Time) { r.g.Submit(t) }
func (r resubmitter) TaskFailed(*Task, sim.Time)   {}

// BenchmarkGPULaunch prices one GPU launch — batch gather, completion and
// the resubmissions that refill the queue — at a shallow and at a
// saturated queue depth: four kernels interleaved, each queued under
// variants of batch capacity 1, 4, 8 and 16.
func BenchmarkGPULaunch(b *testing.B) {
	caps := []int{1, 4, 8, 16}
	for _, depth := range []int{10, 2500} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := sim.New()
			g := NewGPU(s, "gpu0", AMDW9100)
			for i := 0; i < depth; i++ {
				k := fmt.Sprintf("k%d", i%4)
				c := caps[(i/4)%len(caps)]
				g.Submit(&Task{Kernel: k, ImplID: fmt.Sprintf("%s|b%d", k, c), LatencyMS: 2, IntervalMS: 2,
					Batch: c, PowerW: 150, Owner: resubmitter{g}})
			}
			s.Step()
			launches, tasks, _ := g.Launches()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for n := g.launches; g.launches == n; {
					s.Step()
				}
			}
			b.StopTimer()
			l, t, _ := g.Launches()
			b.ReportMetric(float64(t-tasks)/float64(l-launches), "tasks/launch")
		})
	}
}
