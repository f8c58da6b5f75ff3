package device

import (
	"fmt"
	"math"
	"slices"

	"poly/internal/sim"
)

// Task is one kernel execution submitted to an accelerator. The latency,
// interval, and power numbers come from the implementation the runtime
// scheduler selected (a model.Impl); the device simulator adds the
// effects the analytical model cannot see: queueing, batch formation,
// DVFS state, and FPGA reconfiguration.
type Task struct {
	// Kernel is the kernel name (for accounting).
	Kernel string
	// ImplID identifies the implementation (kernel + config). The GPU
	// batches only same-impl tasks; the FPGA reconfigures when it changes.
	ImplID string
	// LatencyMS is the batch execution latency at nominal frequency.
	LatencyMS float64
	// IntervalMS is the pipelined initiation interval (FPGA); ≥ LatencyMS
	// means no request-level pipelining.
	IntervalMS float64
	// Batch is the launch's batch capacity (GPU; 1 on FPGA).
	Batch int
	// WindowMS bounds how long the GPU may hold this task to accumulate
	// a fuller batch (DjiNN-style deadline-aware batching). Zero launches
	// immediately.
	WindowMS float64
	// enqueuedAt is stamped by the device on Submit.
	enqueuedAt sim.Time
	// PowerW is the board's active power while executing this impl.
	PowerW float64
	// OnStart is called when the device begins executing the task (the
	// launch or pipeline-initiation instant). May be nil; telemetry uses
	// it to split queue time from service time per request.
	OnStart func(at sim.Time)
	// OnDone is called when the task completes. May be nil.
	OnDone func(at sim.Time)
	// OnFail is called instead of OnDone when the board loses the task —
	// a submission rejected or a queue flushed by an injected board
	// failure, or a bitstream that repeatedly refuses to load. May be
	// nil, in which case the task silently disappears (the runtime always
	// sets it when fault injection is active).
	OnFail func(at sim.Time)

	// Owner, when set, receives the lifecycle callbacks instead of the
	// OnStart/OnDone/OnFail fields. Pooled owners (the runtime's request
	// objects) use it to avoid allocating three closures per task; the
	// func fields remain for ad-hoc callers.
	Owner TaskOwner
	// Device is the board name the task was submitted to; owner-based
	// callers set it so the Owner callbacks can attribute the task
	// without a captured closure.
	Device string
	// KernelIdx is the owner's dense kernel index for Kernel (see
	// runtime's program interning); opaque to the device layer.
	KernelIdx int32
	// seq is the task's position in its GPU's modelled FIFO while queued
	// there (see GPUDevice); it fills the padding after KernelIdx.
	seq uint32
	// PredictedEndMS carries the plan's predicted completion time for
	// fault-monitor comparison at fire time.
	PredictedEndMS float64

	// fpga backlinks the board while an FPGA completion event for this
	// task is in flight (closure-free completion dispatch).
	fpga *FPGADevice
	// next links the task to the one behind it in its GPU variant lane.
	next *Task
}

// TaskOwner receives a task's lifecycle callbacks. It is the
// allocation-free alternative to the OnStart/OnDone/OnFail fields: one
// long-lived owner serves every task it submits, with the task itself
// carrying the per-task context (Device, KernelIdx, PredictedEndMS).
type TaskOwner interface {
	// TaskStarted fires when the device begins executing the task.
	TaskStarted(t *Task, at sim.Time)
	// TaskDone fires when the task completes.
	TaskDone(t *Task, at sim.Time)
	// TaskFailed fires instead of TaskDone when the board loses the task.
	TaskFailed(t *Task, at sim.Time)
}

// started/done/fail dispatch a lifecycle callback, preferring Owner.

func (t *Task) started(at sim.Time) {
	if t.Owner != nil {
		t.Owner.TaskStarted(t, at)
		return
	}
	if t.OnStart != nil {
		t.OnStart(at)
	}
}

func (t *Task) done(at sim.Time) {
	if t.Owner != nil {
		t.Owner.TaskDone(t, at)
		return
	}
	if t.OnDone != nil {
		t.OnDone(at)
	}
}

func (t *Task) fail(at sim.Time) {
	if t.Owner != nil {
		t.Owner.TaskFailed(t, at)
		return
	}
	if t.OnFail != nil {
		t.OnFail(at)
	}
}

// FaultHook lets a fault-injection layer perturb a board's behavior.
// *fault.Injector implements it structurally; a nil hook (the default)
// costs the devices only nil-checks and leaves execution bit-identical
// to a build without fault injection.
type FaultHook interface {
	// ExecScale returns the service-time multiplier for one execution
	// starting at `at` (1 = unperturbed).
	ExecScale(board, implID string, at sim.Time) float64
	// BoardDown reports whether the board is inside a failure window.
	BoardDown(board string, at sim.Time) bool
	// ReconfigAborts decides whether one FPGA bitstream-load attempt
	// fails: the penalty is paid but the bitstream is not resident.
	ReconfigAborts(board, implID string, at sim.Time) bool
}

// Observer receives board-level telemetry events. The runtime attaches
// one (telemetry.Sink satisfies it structurally); a nil observer costs a
// device only nil-checks.
type Observer interface {
	// Launched reports one physical execution: a (possibly batched) GPU
	// launch or one FPGA task, with its execution window.
	Launched(device, kernel, implID string, batch int, start, end sim.Time)
	// ReconfigStart reports an FPGA bitstream load beginning at `at` and
	// stalling the board for stallMS; background loads are governor
	// preloads, foreground ones are paid by a request.
	ReconfigStart(device, implID string, at sim.Time, stallMS float64, background bool)
	// DVFSChanged reports a GPU operating-point change.
	DVFSChanged(device string, level int, at sim.Time)
}

// ResourceObserver receives board occupancy events for resource
// accounting (telemetry.Sink satisfies it structurally). It is separate
// from Observer because it fires on state *transitions* rather than on
// work items: busy flips, power-level changes, bitstream residency. A
// nil observer costs a device only nil-checks and never perturbs the
// simulated timeline.
type ResourceObserver interface {
	// BusyChanged reports the board's in-flight task count. Boards elide
	// interior changes: only idle↔busy transitions are guaranteed.
	BusyChanged(device string, busy int, at sim.Time)
	// PowerChanged reports a change of instantaneous draw.
	PowerChanged(device string, watts float64, at sim.Time)
	// BitstreamResident reports the bitstream occupying an FPGA's
	// reconfigurable region ("" after an aborted load leaves it blank).
	BitstreamResident(device, implID string, at sim.Time)
}

// Accelerator is a simulated board: it accepts tasks, reports occupancy
// for the scheduler's EST table (Eq. 4), and accounts energy.
type Accelerator interface {
	// Name is the board instance name, unique within a node.
	Name() string
	// Class is GPU or FPGA.
	Class() Class
	// Submit enqueues a task.
	Submit(t *Task)
	// NextFreeAt estimates when a newly submitted task could start —
	// the T_queue(d_n) term of the scheduler's EST computation.
	NextFreeAt() sim.Time
	// QueueLen is the number of tasks waiting or running.
	QueueLen() int
	// PowerW is the instantaneous power draw.
	PowerW() float64
	// EnergyMJ is the accumulated energy in millijoules since creation.
	EnergyMJ() float64
	// Perturb returns the device's deterministic execution-time noise
	// factor for an impl — the gap between analytical model and
	// "hardware" the paper reports as ≤6 % (Section VI-C).
	Perturb(implID string) float64
}

// accelBase carries the bookkeeping shared by both device families.
type accelBase struct {
	name   string
	sim    *sim.Simulator
	power  float64 // instantaneous watts
	energy float64 // accumulated mJ
	lastAt sim.Time
	obs    Observer         // nil when telemetry is disabled
	res    ResourceObserver // nil when resource accounting is disabled
	fault  FaultHook        // nil when fault injection is disabled

	// pertID/pertF memoize the last Perturb (pertOK once set): an FPGA
	// runs its resident bitstream almost always, and a GPU launches the
	// same widest variant run after run.
	pertID string
	pertF  float64
	pertOK bool
}

func (b *accelBase) Name() string { return b.name }

// SetObserver attaches (or detaches, with nil) a telemetry observer.
func (b *accelBase) SetObserver(o Observer) { b.obs = o }

// SetResourceObserver attaches (or detaches, with nil) a resource
// accounting observer.
func (b *accelBase) SetResourceObserver(o ResourceObserver) { b.res = o }

// notifyBusy reports an idle↔busy transition.
func (b *accelBase) notifyBusy(n int) {
	if b.res != nil {
		b.res.BusyChanged(b.name, n, b.sim.Now())
	}
}

// SetFaultHook attaches (or detaches, with nil) a fault injector.
func (b *accelBase) SetFaultHook(h FaultHook) { b.fault = h }

// down reports whether the injected fault plan has the board failed now.
func (b *accelBase) down() bool {
	return b.fault != nil && b.fault.BoardDown(b.name, b.sim.Now())
}

// failTask reports a lost task to its owner at the next event boundary —
// deferring keeps the failure callback (which typically re-submits the
// task elsewhere) out of the device's own queue manipulation.
func (b *accelBase) failTask(t *Task) {
	if t.Owner != nil || t.OnFail != nil {
		b.sim.AfterCall(0, fireTaskFail, t)
	}
}

func fireTaskFail(at sim.Time, a any) { a.(*Task).fail(at) }

// execScale returns the fault layer's duration multiplier (1 when off).
func (b *accelBase) execScale(implID string) float64 {
	if b.fault == nil {
		return 1
	}
	return b.fault.ExecScale(b.name, implID, b.sim.Now())
}

// setPower integrates energy up to now and switches the draw level.
func (b *accelBase) setPower(w float64) {
	now := b.sim.Now()
	b.energy += b.power * float64(now-b.lastAt)
	b.lastAt = now
	if b.res != nil && w != b.power {
		b.res.PowerChanged(b.name, w, now)
	}
	b.power = w
}

func (b *accelBase) PowerW() float64 { return b.power }

func (b *accelBase) EnergyMJ() float64 {
	// Include the span since the last state change.
	return b.energy + b.power*float64(b.sim.Now()-b.lastAt)
}

// perturb derives a deterministic per-impl execution noise in
// [1-amp, 1+amp] from a string hash, standing in for the measurement
// noise of real hardware. The paper's model-accuracy claim (≤6 % error)
// is validated against this (BenchmarkModelAccuracy). The two parts are
// hashed as if concatenated with '/' — FNV is a streaming hash, so this
// matches hashing dev+"/"+impl without building the string (Perturb runs
// once per task execution; the concat was a top allocation site under
// load).
func perturb(dev, impl string, amp float64) float64 {
	var h uint32 = 2166136261
	for i := 0; i < len(dev); i++ {
		h ^= uint32(dev[i])
		h *= 16777619
	}
	h ^= uint32('/')
	h *= 16777619
	for i := 0; i < len(impl); i++ {
		h ^= uint32(impl[i])
		h *= 16777619
	}
	u := float64(h%2048)/1023.5 - 1 // [-1, 1]
	return 1 + amp*u
}

// perturbMemo is perturb for this board, served from a one-entry cache
// keyed by impl ID; the factor is a pure function of (board, impl), so
// the cached value is bit-identical to recomputing it.
func (b *accelBase) perturbMemo(implID string, amp float64) float64 {
	if !b.pertOK || implID != b.pertID {
		b.pertID, b.pertF, b.pertOK = implID, perturb(b.name, implID, amp), true
	}
	return b.pertF
}

// LaunchTrace, when non-nil, receives one callback per GPU launch
// (device, kernel, batch size, cap, queue remainder, duration) — a
// diagnostics hook for tests.
var LaunchTrace func(dev, kernel string, batch, cap, left int, durMS float64)

// GPUDevice simulates one GPU board: a FIFO queue whose head batch (up to
// the impl's batch capacity, same kernel only) executes as one launch,
// with a DVFS ladder that scales both speed and power.
//
// The FIFO is stored as per-kernel variant lanes so a launch costs
// O(batch + lanes) instead of O(queue). Inside each kernel there is one
// FIFO lane per variant (Batch, LatencyMS bits), linked through the
// tasks themselves. Every queued task carries its sequence number in the
// single FIFO the board models, so the head kernel, the batch gather and
// a failure flush all follow that FIFO's order exactly. Sequence numbers
// wrap and compare modulo 2^32 (seqBefore): the FIFO's oldest task
// always leaves with the next launch, so the queued ones never span
// anywhere near 2^31 submissions.
type GPUDevice struct {
	accelBase
	spec     GPUSpec
	level    int // index into spec.DVFS
	running  bool
	pending  bool // a launch event is scheduled
	freeAt   sim.Time
	launches int
	tasks    int
	busyMS   float64

	// batchBuf holds the in-flight launch's batch until its completion
	// event fires; only one launch runs at a time, so one buffer
	// suffices. It is reused across calls so the steady-state hot path
	// allocates nothing.
	batchBuf []*Task

	// kernels holds every kernel ever queued on the board (a node runs a
	// handful, so lookup is a linear scan); order lists the non-empty
	// ones by head sequence number — the FIFO's first-seen kernel order.
	kernels []gpuKernel
	order   []int32
	queued  int    // waiting tasks
	nextSeq uint32 // sequence number of the next submission
}

// gpuLane is one variant's FIFO inside a kernel: tasks with the same batch
// capacity and latency, linked head to tail through Task.next. cur is
// launch's gather cursor.
type gpuLane struct {
	batch           int
	lat             float64
	head, tail, cur *Task
}

// gpuKernel is one kernel's share of the queue: its non-empty lanes, its
// task count, and the smallest sequence number among its lane heads.
type gpuKernel struct {
	name  string
	lanes []gpuLane
	n     int
	head  uint32
}

// seqBefore orders two queued tasks' sequence numbers modulo 2^32.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// NewGPU attaches a simulated GPU board to a simulator.
func NewGPU(s *sim.Simulator, name string, spec GPUSpec) *GPUDevice {
	g := &GPUDevice{accelBase: accelBase{name: name, sim: s}, spec: spec}
	if len(g.spec.DVFS) == 0 {
		g.spec.DVFS = []DVFSLevel{{FreqScale: 1, PowerScale: 1}}
	}
	g.setPower(g.idlePower())
	return g
}

// Class returns GPU.
func (g *GPUDevice) Class() Class { return GPU }

// SetDVFS selects an operating point; out-of-range levels clamp. Lower
// levels (higher index) slow execution but cut both active and idle power
// — the runtime's knob for light-load energy proportionality.
func (g *GPUDevice) SetDVFS(level int) {
	if level < 0 {
		level = 0
	}
	if level >= len(g.spec.DVFS) {
		level = len(g.spec.DVFS) - 1
	}
	if g.obs != nil && level != g.level {
		g.obs.DVFSChanged(g.name, level, g.sim.Now())
	}
	g.level = level
	if !g.running {
		g.setPower(g.idlePower())
	}
}

// DVFSLevel returns the current ladder index.
func (g *GPUDevice) DVFSLevel() int { return g.level }

// FreqScale returns the current operating point's clock multiplier.
func (g *GPUDevice) FreqScale() float64 { return g.spec.DVFS[g.level].FreqScale }

// Launches and ExecutedTasks report launch statistics for diagnostics.
func (g *GPUDevice) Launches() (launches, tasks int, busyMS float64) {
	return g.launches, g.tasks, g.busyMS
}

func (g *GPUDevice) idlePower() float64 {
	// Idle draw shrinks with the ladder: clock gating plus memory
	// downclocking, floored by board static power.
	ps := g.spec.DVFS[g.level].PowerScale
	return g.spec.IdlePowerW * (0.4 + 0.6*ps)
}

// Submit enqueues a task. The launch fires at the next event boundary so
// that same-instant submissions can form one batch. A board inside an
// injected failure window rejects the submission outright.
func (g *GPUDevice) Submit(t *Task) {
	if g.down() {
		g.failTask(t)
		return
	}
	t.enqueuedAt = g.sim.Now()
	g.enqueue(t)
	if !g.running {
		// (Re-)evaluate at the next event boundary: a new arrival may
		// complete a batch that was waiting on its window.
		g.pending = true
		g.sim.AfterCall(0, fireGPULaunch, g)
	}
}

// enqueue appends a task to the tail of its kernel's variant lane,
// opening the kernel or the lane when it is not yet queued.
func (g *GPUDevice) enqueue(t *Task) {
	ki := -1
	for i := range g.kernels {
		if g.kernels[i].name == t.Kernel {
			ki = i
			break
		}
	}
	if ki < 0 {
		g.kernels = append(g.kernels, gpuKernel{name: t.Kernel})
		ki = len(g.kernels) - 1
	}
	k := &g.kernels[ki]
	bits := math.Float64bits(t.LatencyMS)
	li := -1
	for i := range k.lanes {
		if k.lanes[i].batch == t.Batch && math.Float64bits(k.lanes[i].lat) == bits {
			li = i
			break
		}
	}
	if li < 0 {
		k.lanes = append(k.lanes, gpuLane{batch: t.Batch, lat: t.LatencyMS})
		li = len(k.lanes) - 1
	}
	t.seq = g.nextSeq
	g.nextSeq++
	t.next = nil
	l := &k.lanes[li]
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
	if k.n == 0 {
		// Every queued task is older, so the kernel joins the order last.
		k.head = t.seq
		g.order = append(g.order, int32(ki))
	}
	k.n++
	g.queued++
}

func fireGPULaunch(_ sim.Time, a any) { a.(*GPUDevice).launch() }

func fireGPUDone(now sim.Time, a any) {
	g := a.(*GPUDevice)
	g.running = false
	g.notifyBusy(0)
	for _, t := range g.batchBuf {
		t.done(now)
	}
	g.launch()
}

// launch forms a batch from the queue head and executes it. When the head
// batch is not yet full and its accumulation window has not expired, the
// launch is deferred — trading a bounded wait for the amortization that
// makes GPUs throughput-efficient.
func (g *GPUDevice) launch() {
	g.pending = false
	if g.running {
		return
	}
	if g.down() {
		g.flush()
		return
	}
	if g.queued == 0 {
		g.running = false
		g.setPower(g.idlePower())
		return
	}
	// The head kernel owns the FIFO's oldest task. Use the widest batch
	// capacity any of its queued variants offers: a batch-1 variant at the
	// head must not cap a launch that batched variants behind it could
	// share. The launch executes as that widest variant, so the task
	// carrying it must be IN the launch — a capacity justified by a task
	// the batch cannot reach (more narrow work queued ahead than the launch
	// can carry) would overfill a narrow variant past its physical batch
	// limit. The justifier is the oldest task of that width: the smallest
	// head sequence among the widest lanes (jl; -1 when the cap is 1).
	k := &g.kernels[g.order[0]]
	cap, jl := 1, -1
	for i := range k.lanes {
		l := &k.lanes[i]
		l.cur = l.head
		if l.batch > cap || (jl >= 0 && l.batch == cap && seqBefore(l.head.seq, k.lanes[jl].head.seq)) {
			cap, jl = l.batch, i
		}
	}
	// Gather up to cap tasks of the head KERNEL in FIFO order by merging
	// its lane heads — a per-kernel batch queue, the way serving systems
	// coalesce same-model launches. Tasks planned with different
	// implementation variants of the same kernel still share one launch
	// (the widest variant): fragmenting batches by directive variant would
	// collapse the GPU's throughput exactly when the scheduler is
	// load-balancing variants under pressure. The last slot stays reserved
	// for the justifier until it is taken. Only lane prefixes are taken.
	batch := g.batchBuf[:0]
	justified := jl < 0
	for len(batch) < cap {
		next := -1
		for i := range k.lanes {
			if c := k.lanes[i].cur; c != nil && (next < 0 || seqBefore(c.seq, k.lanes[next].cur.seq)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		if !justified && next != jl && len(batch) == cap-1 {
			next = jl
		}
		if next == jl {
			justified = true
		}
		l := &k.lanes[next]
		batch = append(batch, l.cur)
		l.cur = l.cur.next
	}
	g.batchBuf = batch
	head := batch[0]
	if len(batch) < cap && head.WindowMS > 0 {
		deadline := head.enqueuedAt + sim.Time(head.WindowMS)
		if g.sim.Now() < deadline {
			// Wait out the window. A short batch holds every task of the
			// head kernel, and the modelled FIFO re-assembles as batch ++
			// remainder: re-sequence the batch ahead of all other queued
			// work so a failure flush keeps that order.
			base := k.head - uint32(len(batch))
			for i, t := range batch {
				t.seq = base + uint32(i)
			}
			k.head = base
			g.pending = true
			g.sim.AtCall(deadline, fireGPULaunch, g)
			return
		}
	}
	g.dequeue(k, batch)

	lvl := g.spec.DVFS[g.level]
	latMS := head.LatencyMS
	powerRef := head
	for _, t := range batch {
		if t.LatencyMS > latMS {
			latMS = t.LatencyMS
			powerRef = t
		}
	}
	dur := sim.Time(latMS / lvl.FreqScale * g.Perturb(powerRef.ImplID))
	if s := g.execScale(powerRef.ImplID); s != 1 {
		dur = sim.Time(float64(dur) * s)
	}
	g.launches++
	g.tasks += len(batch)
	g.busyMS += float64(dur)
	if LaunchTrace != nil {
		LaunchTrace(g.name, head.Kernel, len(batch), cap, g.queued, float64(dur))
	}
	start := g.sim.Now()
	if g.obs != nil {
		g.obs.Launched(g.name, head.Kernel, powerRef.ImplID, len(batch), start, start+dur)
	}
	for _, t := range batch {
		t.started(start)
	}
	g.running = true
	g.notifyBusy(1)
	active := g.spec.IdlePowerW + (powerRef.PowerW-g.spec.IdlePowerW)*lvl.PowerScale
	g.setPower(active)
	g.freeAt = g.sim.Now() + dur
	// The batch stays parked in g.batchBuf until fireGPUDone walks it;
	// g.running guarantees no second launch reuses the buffer meanwhile.
	g.sim.AfterCall(dur, fireGPUDone, g)
}

// dequeue unlinks the batch — a prefix of each lane of the head kernel k,
// ending at the lane's gather cursor — and moves k to its new place in
// the kernel order.
func (g *GPUDevice) dequeue(k *gpuKernel, batch []*Task) {
	k.n -= len(batch)
	g.queued -= len(batch)
	ki := g.order[0]
	if k.n == 0 {
		clear(k.lanes)
		k.lanes = k.lanes[:0]
		g.order = append(g.order[:0], g.order[1:]...)
	} else {
		first := true
		for i := 0; i < len(k.lanes); {
			l := &k.lanes[i]
			if l.head = l.cur; l.head == nil {
				// Lane order carries no meaning: swap-remove the empty lane.
				last := len(k.lanes) - 1
				k.lanes[i] = k.lanes[last]
				k.lanes[last] = gpuLane{}
				k.lanes = k.lanes[:last]
				continue
			}
			if first || seqBefore(l.head.seq, k.head) {
				k.head, first = l.head.seq, false
			}
			i++
		}
		// Every other kernel keeps its head; slide k past the older ones.
		i := 1
		for i < len(g.order) && seqBefore(g.kernels[g.order[i]].head, k.head) {
			g.order[i-1] = g.order[i]
			i++
		}
		g.order[i-1] = ki
	}
	for _, t := range batch {
		t.next = nil
	}
}

// flush fails every queued task in FIFO order: the board failed while
// work was queued. The owners' OnFail callbacks re-place the tasks on
// healthy boards.
func (g *GPUDevice) flush() {
	q := g.appendQueued(g.batchBuf[:0])
	for _, ki := range g.order {
		clear(g.kernels[ki].lanes)
		g.kernels[ki].lanes = g.kernels[ki].lanes[:0]
		g.kernels[ki].n = 0
	}
	g.order = g.order[:0]
	g.queued = 0
	g.setPower(g.idlePower())
	for _, t := range q {
		t.next = nil
		g.failTask(t)
	}
	clear(q)
	g.batchBuf = q[:0]
}

// appendQueued appends the waiting tasks to dst in FIFO (sequence) order.
func (g *GPUDevice) appendQueued(dst []*Task) []*Task {
	n := len(dst)
	for _, ki := range g.order {
		for _, l := range g.kernels[ki].lanes {
			for t := l.head; t != nil; t = t.next {
				dst = append(dst, t)
			}
		}
	}
	slices.SortFunc(dst[n:], func(a, b *Task) int { return int(int32(a.seq - b.seq)) })
	return dst
}

// NextFreeAt reports when the board could start another launch, counting
// the queue's accumulated work at the current DVFS point. The backlog is
// batch-compressed: each kernel's queued tasks coalesce into
// ceil(n/batch) launches of its longest latency, summed in first-seen
// queue order. A kernel's widest cap and longest latency come from its
// lanes, so the cost is O(kernels × variants), not O(queue).
func (g *GPUDevice) NextFreeAt() sim.Time {
	at := g.sim.Now()
	if g.running && g.freeAt > at {
		at = g.freeAt
	}
	lvl := g.spec.DVFS[g.level]
	for _, ki := range g.order {
		k := &g.kernels[ki]
		cap, lat := 1, 0.0
		for i := range k.lanes {
			l := &k.lanes[i]
			if l.batch > cap {
				cap = l.batch
			}
			if l.lat > lat {
				lat = l.lat
			}
		}
		launches := (k.n + cap - 1) / cap
		at += sim.Time(float64(launches) * lat / lvl.FreqScale)
	}
	return at
}

// QueueLen returns waiting plus running launches.
func (g *GPUDevice) QueueLen() int {
	n := g.queued
	if g.running {
		n++
	}
	return n
}

// Perturb implements Accelerator with a ±4 % deterministic noise band.
func (g *GPUDevice) Perturb(implID string) float64 { return g.perturbMemo(implID, 0.04) }

// FPGADevice simulates one FPGA board: a request pipeline for the loaded
// bitstream, with reconfiguration when the implementation changes and a
// low-power shell state for idle periods.
type FPGADevice struct {
	accelBase
	spec      FPGASpec
	loaded    string // ImplID of the resident bitstream; "" = blank shell
	lowPower  bool
	queue     []*Task
	inflight  int
	nextInit  sim.Time
	draining  bool
	reconfigs int
	// abortStreak counts consecutive injected bitstream-load aborts; the
	// third in a row fails the head task instead of burning the board on
	// reconfiguration retries forever.
	abortStreak int
}

// NewFPGA attaches a simulated FPGA board to a simulator.
func NewFPGA(s *sim.Simulator, name string, spec FPGASpec) *FPGADevice {
	f := &FPGADevice{accelBase: accelBase{name: name, sim: s}, spec: spec}
	f.setPower(spec.IdlePowerW)
	return f
}

// Class returns FPGA.
func (f *FPGADevice) Class() Class { return FPGA }

// Loaded returns the resident implementation ID ("" when blank).
func (f *FPGADevice) Loaded() string { return f.loaded }

// EnterLowPower clock-gates the idle fabric, cutting idle draw by 40 %
// while keeping the resident bitstream (so the next request pays no
// reconfiguration). No-op while work is queued or in flight.
func (f *FPGADevice) EnterLowPower() {
	if f.inflight > 0 || len(f.queue) > 0 {
		return
	}
	f.lowPower = true
	f.setPower(f.spec.IdlePowerW * 0.6)
}

// Reconfigs returns how many bitstream loads the board performed
// (including background preloads).
func (f *FPGADevice) Reconfigs() int { return f.reconfigs }

// Idle reports whether the board has no queued or in-flight work.
func (f *FPGADevice) Idle() bool { return f.inflight == 0 && len(f.queue) == 0 && !f.draining }

// Preload flashes a bitstream onto an idle board in the background, so
// the implementation is resident before any request needs it. No-op if
// the board has work, is mid-reconfiguration, or already holds implID.
func (f *FPGADevice) Preload(implID string) {
	if !f.Idle() || f.loaded == implID || implID == "" {
		return
	}
	f.reconfigs++
	if f.obs != nil {
		f.obs.ReconfigStart(f.name, implID, f.sim.Now(), f.spec.ReconfigMS, true)
	}
	f.lowPower = false
	f.draining = true // block submissions from racing the flash
	f.setPower(f.spec.IdlePowerW + 0.3*(f.spec.PeakPowerW-f.spec.IdlePowerW))
	prev := f.loaded
	if f.fault != nil && f.fault.ReconfigAborts(f.name, implID, f.sim.Now()) {
		// Aborted background flash: the stall is paid, the fabric comes
		// up blank, and the governor's next provisioning pass retries.
		f.loaded = ""
	} else {
		f.loaded = implID
	}
	if f.res != nil && f.loaded != prev {
		f.res.BitstreamResident(f.name, f.loaded, f.sim.Now())
	}
	f.nextInit = f.sim.Now() + sim.Time(f.spec.ReconfigMS)
	f.sim.At(f.nextInit, func() {
		f.draining = false
		if f.inflight == 0 && len(f.queue) == 0 {
			f.setPower(f.spec.IdlePowerW)
		} else {
			f.drain()
		}
	})
}

// Submit enqueues a task; it starts as soon as the pipeline's initiation
// interval and any needed reconfiguration allow. A board inside an
// injected failure window rejects the submission outright.
func (f *FPGADevice) Submit(t *Task) {
	if f.down() {
		f.failTask(t)
		return
	}
	f.queue = append(f.queue, t)
	if !f.draining {
		f.drain()
	}
}

// drain starts queued tasks respecting reconfiguration and the II.
func (f *FPGADevice) drain() {
	if f.down() {
		// The board failed while work was queued: flush everything. The
		// owners' OnFail callbacks re-place the tasks on healthy boards.
		q := f.queue
		f.queue = nil
		f.draining = false
		if f.inflight == 0 {
			f.setPower(f.spec.IdlePowerW)
		}
		for _, t := range q {
			f.failTask(t)
		}
		return
	}
	if len(f.queue) == 0 {
		f.draining = false
		if f.inflight == 0 {
			f.setPower(f.spec.IdlePowerW)
		}
		return
	}
	f.draining = true
	t := f.queue[0]

	if f.loaded != t.ImplID {
		// Reconfigure, then retry the drain. The fault layer may abort
		// the load: the stall is paid but the fabric comes up blank, and
		// the next drain retries — a third consecutive abort fails the
		// head task instead of reconfiguring forever.
		aborted := f.fault != nil && f.fault.ReconfigAborts(f.name, t.ImplID, f.sim.Now())
		if aborted && f.abortStreak >= 2 {
			f.queue = f.queue[1:]
			f.abortStreak = 0
			f.failTask(t)
			f.drain()
			return
		}
		f.reconfigs++
		if f.obs != nil {
			f.obs.ReconfigStart(f.name, t.ImplID, f.sim.Now(), f.spec.ReconfigMS, false)
		}
		f.lowPower = false
		f.setPower(f.spec.IdlePowerW + 0.3*(f.spec.PeakPowerW-f.spec.IdlePowerW))
		prev := f.loaded
		if aborted {
			f.abortStreak++
			f.loaded = ""
		} else {
			f.abortStreak = 0
			f.loaded = t.ImplID
		}
		if f.res != nil && f.loaded != prev {
			f.res.BitstreamResident(f.name, f.loaded, f.sim.Now())
		}
		f.nextInit = f.sim.Now() + sim.Time(f.spec.ReconfigMS)
		f.sim.AtCall(f.nextInit, fireFPGADrain, f)
		return
	}
	now := f.sim.Now()
	if now < f.nextInit {
		f.sim.AtCall(f.nextInit, fireFPGADrain, f)
		return
	}
	f.queue = f.queue[1:]
	noise := f.Perturb(t.ImplID)
	if s := f.execScale(t.ImplID); s != 1 {
		noise *= s
	}
	lat := sim.Time(t.LatencyMS * noise)
	ii := sim.Time(t.IntervalMS * noise)
	if ii <= 0 || ii > lat {
		ii = lat
	}
	f.inflight++
	if f.inflight == 1 {
		f.notifyBusy(1)
	}
	f.setPower(t.PowerW)
	f.nextInit = now + ii
	if f.obs != nil {
		f.obs.Launched(f.name, t.Kernel, t.ImplID, 1, now, now+lat)
	}
	t.started(now)
	t.fpga = f
	f.sim.AfterCall(lat, fireFPGATaskDone, t)
	if len(f.queue) > 0 {
		f.sim.AtCall(f.nextInit, fireFPGADrain, f)
	} else {
		f.draining = false
	}
}

func fireFPGADrain(_ sim.Time, a any) { a.(*FPGADevice).drain() }

func fireFPGATaskDone(now sim.Time, a any) {
	t := a.(*Task)
	f := t.fpga
	t.fpga = nil
	f.inflight--
	if f.inflight == 0 {
		f.notifyBusy(0)
	}
	t.done(now)
	if f.inflight == 0 && len(f.queue) == 0 {
		f.setPower(f.spec.IdlePowerW)
	}
}

// NextFreeAt reports when a new task could initiate, including pending
// reconfiguration and queued initiations.
func (f *FPGADevice) NextFreeAt() sim.Time {
	at := f.sim.Now()
	if f.nextInit > at {
		at = f.nextInit
	}
	for _, t := range f.queue {
		ii := t.IntervalMS
		if ii <= 0 || ii > t.LatencyMS {
			ii = t.LatencyMS
		}
		at += sim.Time(ii)
	}
	return at
}

// QueueLen returns waiting plus in-flight tasks.
func (f *FPGADevice) QueueLen() int { return len(f.queue) + f.inflight }

// Perturb implements Accelerator with a ±5 % deterministic noise band.
func (f *FPGADevice) Perturb(implID string) float64 { return f.perturbMemo(implID, 0.05) }

var (
	_ Accelerator = (*GPUDevice)(nil)
	_ Accelerator = (*FPGADevice)(nil)
)

// String describes the board for logs.
func (g *GPUDevice) String() string {
	return fmt.Sprintf("%s(%s)", g.name, g.spec.Name)
}

// String describes the board for logs.
func (f *FPGADevice) String() string {
	return fmt.Sprintf("%s(%s)", f.name, f.spec.Name)
}
