package device

import "poly/internal/sim"

// This file keeps the single-FIFO GPU queue as a test-only reference: the
// queue exactly as it was before per-kernel variant lanes. Every launch
// walks the whole queue twice (once for the widest batch cap and its
// justifying task, once to gather the batch and rebuild the remainder),
// a batch-window wait re-assembles batch ++ remainder, and a failure flush
// fails the queue front to back. TestGPULanesMatchQueue requires
// GPUDevice to reproduce its launches, callbacks and pricing bit for bit.
// The ref* counters record which hard cases a script reached.

// refGPU is the reference GPU board.
type refGPU struct {
	accelBase
	spec     GPUSpec
	level    int
	queue    []*Task
	running  bool
	pending  bool
	freeAt   sim.Time
	launches int
	tasks    int
	busyMS   float64

	batchBuf   []*Task
	keepBuf    []*Task
	backlog    []gpuGroup
	backlogBuf []gpuGroup

	// trace receives one callback per launch, as LaunchTrace does for
	// GPUDevice.
	trace func(dev, kernel string, batch, cap, left int, durMS float64)

	// resequencedWaits counts window waits whose re-assembly moved a task
	// of the head kernel ahead of another kernel's task; justifierSkips
	// counts launches whose cap-justifying task sat beyond the first cap
	// tasks of its kernel; multiKernelFlushes counts failure flushes of a
	// queue holding two or more kernels.
	resequencedWaits, justifierSkips, multiKernelFlushes int
}

// gpuGroup is one queued kernel's share of the reference GPU backlog: its
// task count, the widest batch capacity and the longest latency among
// them.
type gpuGroup struct {
	kernel string
	n, cap int
	lat    float64
}

// addToBacklog folds one queued task into its kernel's group, appending a
// new group when the kernel is not yet queued.
func addToBacklog(groups []gpuGroup, t *Task) []gpuGroup {
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
	return groups
}

func newRefGPU(s *sim.Simulator, name string, spec GPUSpec) *refGPU {
	g := &refGPU{accelBase: accelBase{name: name, sim: s}, spec: spec}
	if len(g.spec.DVFS) == 0 {
		g.spec.DVFS = []DVFSLevel{{FreqScale: 1, PowerScale: 1}}
	}
	g.setPower(g.idlePower())
	return g
}

func (g *refGPU) SetDVFS(level int) {
	if level < 0 {
		level = 0
	}
	if level >= len(g.spec.DVFS) {
		level = len(g.spec.DVFS) - 1
	}
	g.level = level
	if !g.running {
		g.setPower(g.idlePower())
	}
}

func (g *refGPU) idlePower() float64 {
	ps := g.spec.DVFS[g.level].PowerScale
	return g.spec.IdlePowerW * (0.4 + 0.6*ps)
}

func (g *refGPU) Submit(t *Task) {
	if g.down() {
		g.failTask(t)
		return
	}
	t.enqueuedAt = g.sim.Now()
	g.queue = append(g.queue, t)
	g.backlog = addToBacklog(g.backlog, t)
	if !g.running {
		g.pending = true
		g.sim.AfterCall(0, fireRefLaunch, g)
	}
}

func fireRefLaunch(_ sim.Time, a any) { a.(*refGPU).launch() }

func fireRefDone(now sim.Time, a any) {
	g := a.(*refGPU)
	g.running = false
	for _, t := range g.batchBuf {
		t.done(now)
	}
	g.launch()
}

func (g *refGPU) launch() {
	g.pending = false
	if g.running {
		return
	}
	if g.down() {
		q := g.queue
		g.queue = nil
		g.backlog = g.backlog[:0]
		g.setPower(g.idlePower())
		for _, t := range q {
			if t.Kernel != q[0].Kernel {
				g.multiKernelFlushes++
				break
			}
		}
		for _, t := range q {
			g.failTask(t)
		}
		return
	}
	if len(g.queue) == 0 {
		g.running = false
		g.setPower(g.idlePower())
		return
	}
	head := g.queue[0]
	cap := 1
	wi := -1
	for i, t := range g.queue {
		if t.Kernel == head.Kernel && t.Batch > cap {
			cap = t.Batch
			wi = i
		}
	}
	batch := g.batchBuf[:0]
	keep := g.keepBuf[:0]
	rest := g.backlogBuf[:0]
	capTaken := wi < 0
	skipped := false
	for i, t := range g.queue {
		if t.Kernel != head.Kernel {
			keep = append(keep, t)
			rest = addToBacklog(rest, t)
			continue
		}
		slots := cap - len(batch)
		if i == wi {
			batch = append(batch, t)
			capTaken = true
			continue
		}
		if !capTaken {
			slots--
		}
		if slots > 0 {
			batch = append(batch, t)
		} else {
			if !capTaken {
				skipped = true
			}
			keep = append(keep, t)
			rest = addToBacklog(rest, t)
		}
	}
	g.batchBuf, g.keepBuf, g.backlogBuf = batch, keep, rest
	if len(batch) < cap && head.WindowMS > 0 {
		deadline := head.enqueuedAt + sim.Time(head.WindowMS)
		if g.sim.Now() < deadline {
			for i, t := range batch {
				if g.queue[i] != t {
					g.resequencedWaits++
					break
				}
			}
			q := g.queue[:0]
			q = append(q, batch...)
			q = append(q, keep...)
			g.queue = q
			g.pending = true
			g.sim.AtCall(deadline, fireRefLaunch, g)
			return
		}
	}
	if skipped {
		g.justifierSkips++
	}
	g.queue = append(g.queue[:0], keep...)
	g.backlog, g.backlogBuf = rest, g.backlog

	lvl := g.spec.DVFS[g.level]
	latMS := head.LatencyMS
	powerRef := head
	for _, t := range batch {
		if t.LatencyMS > latMS {
			latMS = t.LatencyMS
			powerRef = t
		}
	}
	dur := sim.Time(latMS / lvl.FreqScale * perturb(g.name, powerRef.ImplID, 0.04))
	if s := g.execScale(powerRef.ImplID); s != 1 {
		dur = sim.Time(float64(dur) * s)
	}
	g.launches++
	g.tasks += len(batch)
	g.busyMS += float64(dur)
	if g.trace != nil {
		g.trace(g.name, head.Kernel, len(batch), cap, len(keep), float64(dur))
	}
	start := g.sim.Now()
	for _, t := range batch {
		t.started(start)
	}
	g.running = true
	active := g.spec.IdlePowerW + (powerRef.PowerW-g.spec.IdlePowerW)*lvl.PowerScale
	g.setPower(active)
	g.freeAt = g.sim.Now() + dur
	g.sim.AfterCall(dur, fireRefDone, g)
}

func (g *refGPU) NextFreeAt() sim.Time {
	at := g.sim.Now()
	if g.running && g.freeAt > at {
		at = g.freeAt
	}
	lvl := g.spec.DVFS[g.level]
	for i := range g.backlog {
		gr := &g.backlog[i]
		launches := (gr.n + gr.cap - 1) / gr.cap
		at += sim.Time(float64(launches) * gr.lat / lvl.FreqScale)
	}
	return at
}

func (g *refGPU) QueueLen() int {
	n := len(g.queue)
	if g.running {
		n++
	}
	return n
}
