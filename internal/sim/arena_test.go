package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference oracle: the pre-arena event core, verbatim container/heap
// implementation with per-event allocations. The arena rewrite must fire
// the exact same callbacks in the exact same order.
// ---------------------------------------------------------------------------

type oracleEvent struct {
	at     Time
	seq    uint64
	index  int
	action func()
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }

func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q oracleQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *oracleQueue) Push(x any) {
	e := x.(*oracleEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type oracleSim struct {
	now    Time
	seq    uint64
	queue  oracleQueue
	fired  uint64
	halted bool
}

func (s *oracleSim) At(at Time, action func()) *oracleEvent {
	if at < s.now {
		at = s.now
	}
	e := &oracleEvent{at: at, seq: s.seq, action: action}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

func (s *oracleSim) Cancel(e *oracleEvent) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&s.queue, e.index)
	e.index = -1
	e.action = nil
	return true
}

func (s *oracleSim) Halt() { s.halted = true }

func (s *oracleSim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*oracleEvent)
	s.now = e.at
	s.fired++
	action := e.action
	e.action = nil
	action()
	return true
}

func (s *oracleSim) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

func (s *oracleSim) RunUntil(deadline Time) {
	s.halted = false
	for !s.halted && len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

func (s *oracleSim) RunUntilBarrier(deadline Time, mark uint64) {
	s.halted = false
	for !s.halted && len(s.queue) > 0 {
		e := s.queue[0]
		if e.at > deadline || (e.at == deadline && e.seq >= mark) {
			break
		}
		s.Step()
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// ---------------------------------------------------------------------------
// Scripted dual-drive: a deterministic PRNG generates an op script that is
// replayed against both cores. Each scheduled event logs its ID and firing
// time, schedules children (sometimes in the past, exercising the clamp),
// cancels a random live event, or halts the running loop.
// ---------------------------------------------------------------------------

type arenaScriptOp struct {
	// 0: schedule root, 1: cancel k-th live, 2: run, 3: runUntil, 4: step,
	// 5: sorted burst, 6: runUntilBarrier, 7: cancel k-th newest live
	kind     int
	at       Time // schedule time / runUntil deadline / burst gap
	children int  // events the callback schedules, at at+childDelta[i]
	deltas   [3]Time
	cancelK  int
	halt     bool // callback halts the simulator
	burst    int  // events a sorted burst schedules, at increasing times
	markBack uint64
}

func genArenaScript(rng *RNG, n int) []arenaScriptOp {
	ops := make([]arenaScriptOp, 0, n)
	for i := 0; i < n; i++ {
		var op arenaScriptOp
		switch r := rng.Float64(); {
		case r < 0.55:
			op.kind = 0
			op.at = Time(rng.Uniform(0, 500))
			op.children = int(rng.Uniform(0, 3.5))
			for j := range op.deltas {
				// Negative deltas exercise the past-clamp path.
				op.deltas[j] = Time(rng.Uniform(-40, 120))
			}
			op.halt = rng.Float64() < 0.05
		case r < 0.7:
			op.kind = 1
			op.cancelK = int(rng.Uniform(0, 16))
		case r < 0.8:
			op.kind = 2
		case r < 0.95:
			op.kind = 3
			op.at = Time(rng.Uniform(0, 600))
		default:
			op.kind = 4
		}
		ops = append(ops, op)
	}
	return ops
}

// arenaDriver replays a script against one of the two cores through a
// minimal schedule/cancel/run facade, recording the firing log.
type arenaDriver struct {
	log      []string
	nextID   int
	schedule func(at Time, action func()) (cancel func() bool)
	run      func()
	runUntil func(Time)
	barrier  func(Time, uint64)
	seqMark  func() uint64
	step     func() bool
	halt     func()
	now      func() Time
	pending  func() int
	fired    func() uint64
	// live holds cancel funcs for events believed pending, in issue order.
	live []func() bool
	// tail is the latest time a sorted burst scheduled at.
	tail Time
}

func (d *arenaDriver) fire(id int, op arenaScriptOp) {
	d.log = append(d.log, fmt.Sprintf("%d@%v", id, d.now()))
	for c := 0; c < op.children; c++ {
		childAt := d.now() + op.deltas[c]
		cid := d.nextID
		d.nextID++
		childOp := arenaScriptOp{} // children are leaves
		d.live = append(d.live, d.schedule(childAt, func() { d.fire(cid, childOp) }))
	}
	if op.halt {
		d.halt()
	}
}

func (d *arenaDriver) apply(op arenaScriptOp) {
	switch op.kind {
	case 0:
		id := d.nextID
		d.nextID++
		d.live = append(d.live, d.schedule(op.at, func() { d.fire(id, op) }))
	case 1:
		if len(d.live) > 0 {
			k := op.cancelK % len(d.live)
			ok := d.live[k]()
			d.log = append(d.log, fmt.Sprintf("cancel#%d=%v", k, ok))
			d.live = append(d.live[:k], d.live[k+1:]...)
		}
	case 2:
		d.run()
	case 3:
		d.runUntil(op.at)
	case 4:
		d.log = append(d.log, fmt.Sprintf("step=%v", d.step()))
	case 5:
		// Arrivals injected in time order: every burst event lands at or
		// after the previous one, the pattern the run takes off the heap.
		at := max(d.tail, d.now())
		for i := 0; i < op.burst; i++ {
			at += op.at * Time(i%3)
			id := d.nextID
			d.nextID++
			leaf := arenaScriptOp{children: op.children, deltas: op.deltas, halt: op.halt && i == op.burst/2}
			d.live = append(d.live, d.schedule(at, func() { d.fire(id, leaf) }))
		}
		d.tail = at
	case 6:
		mark := d.seqMark()
		mark -= min(mark, op.markBack)
		d.barrier(op.at, mark)
	case 7:
		if len(d.live) > 0 {
			k := len(d.live) - 1 - op.cancelK%len(d.live)
			ok := d.live[k]()
			d.log = append(d.log, fmt.Sprintf("cancel#%d=%v", k, ok))
			d.live = append(d.live[:k], d.live[k+1:]...)
		}
	}
}

// genRunScript is genArenaScript for the run beside the heap: sorted
// arrival bursts interleaved with out-of-order schedules (whose children
// land before the run's tail), cancels aimed at the newest events (run
// entries, often not at the run's front), RunUntil, RunUntilBarrier with
// marks behind the sequence counter, single steps and halts.
func genRunScript(rng *RNG, n int) []arenaScriptOp {
	ops := make([]arenaScriptOp, 0, n)
	for i := 0; i < n; i++ {
		var op arenaScriptOp
		switch r := rng.Float64(); {
		case r < 0.25:
			op.kind = 5
			op.burst = 1 + int(rng.Uniform(0, 12))
			op.at = Time(rng.Uniform(0, 20))
			op.children = int(rng.Uniform(0, 2.5))
			for j := range op.deltas {
				op.deltas[j] = Time(rng.Uniform(-10, 60))
			}
			op.halt = rng.Float64() < 0.1
		case r < 0.45:
			op.kind = 0
			op.at = Time(rng.Uniform(0, 800))
			op.children = int(rng.Uniform(0, 3.5))
			for j := range op.deltas {
				op.deltas[j] = Time(rng.Uniform(-40, 120))
			}
			op.halt = rng.Float64() < 0.05
		case r < 0.55:
			op.kind = 1
			op.cancelK = int(rng.Uniform(0, 64))
		case r < 0.68:
			op.kind = 7
			op.cancelK = int(rng.Uniform(0, 6))
		case r < 0.72:
			op.kind = 2
		case r < 0.82:
			op.kind = 3
			op.at = Time(rng.Uniform(0, 900))
		case r < 0.92:
			op.kind = 6
			op.at = Time(rng.Uniform(0, 900))
			op.markBack = uint64(rng.Uniform(0, 20))
		default:
			op.kind = 4
		}
		ops = append(ops, op)
	}
	return ops
}

// runStats counts the run cases a script reached on the arena.
type runStats struct {
	// runFired counts events scheduled into the run that fired from it.
	runFired int
	// tombstoned and frontCancels count cancels of live run entries behind
	// and at the run's front; staleReused counts cancels through stale
	// handles whose slot was pending again.
	tombstoned, frontCancels, staleReused int
}

// runDrivers builds the arena and oracle drivers over fresh cores. When
// st is non-nil the arena driver counts run cases into it.
func runDrivers(st *runStats) (*arenaDriver, *arenaDriver) {
	arena := New()
	da := &arenaDriver{
		schedule: func(at Time, action func()) func() bool {
			var h Handle
			if st == nil {
				h = arena.At(at, action)
			} else {
				var inRunAt bool
				h = arena.At(at, func() {
					if inRunAt {
						st.runFired++
					}
					action()
				})
				inRunAt = arena.slots[h.idx].heapIdx == slotInRun
			}
			return func() bool {
				if st != nil {
					e := &arena.slots[h.idx]
					switch {
					case e.gen == h.gen && e.heapIdx == slotInRun && arena.run[arena.runHead] == h.idx:
						st.frontCancels++
					case e.gen == h.gen && e.heapIdx == slotInRun:
						st.tombstoned++
					case e.gen != h.gen && e.heapIdx != slotFree:
						st.staleReused++
					}
				}
				return arena.Cancel(h)
			}
		},
		run:      arena.Run,
		runUntil: arena.RunUntil,
		barrier:  arena.RunUntilBarrier,
		seqMark:  arena.SeqMark,
		step:     arena.Step,
		halt:     arena.Halt,
		now:      arena.Now,
		pending:  arena.Pending,
		fired:    arena.Fired,
	}

	oracle := &oracleSim{}
	do := &arenaDriver{
		schedule: func(at Time, action func()) func() bool {
			e := oracle.At(at, action)
			return func() bool { return oracle.Cancel(e) }
		},
		run:      oracle.Run,
		runUntil: oracle.RunUntil,
		barrier:  oracle.RunUntilBarrier,
		seqMark:  func() uint64 { return oracle.seq },
		step:     oracle.Step,
		halt:     oracle.Halt,
		now:      func() Time { return oracle.now },
		pending:  func() int { return len(oracle.queue) },
		fired:    func() uint64 { return oracle.fired },
	}
	return da, do
}

// replayAgainstOracle applies a script to both drivers, comparing clocks,
// Pending and Fired after every op and the complete firing logs after a
// final drain.
func replayAgainstOracle(t *testing.T, seed int64, script []arenaScriptOp, da, do *arenaDriver) {
	t.Helper()
	for i, op := range script {
		da.apply(op)
		do.apply(op)
		if da.now() != do.now() {
			t.Fatalf("seed %d op %d: clock %v vs oracle %v", seed, i, da.now(), do.now())
		}
		if da.pending() != do.pending() {
			t.Fatalf("seed %d op %d: pending %d vs oracle %d", seed, i, da.pending(), do.pending())
		}
		if da.fired() != do.fired() {
			t.Fatalf("seed %d op %d: fired %d vs oracle %d", seed, i, da.fired(), do.fired())
		}
	}
	// Drain both (re-entering after any mid-drain Halt) and compare
	// the complete firing logs.
	for da.pending() > 0 {
		da.run()
	}
	for do.pending() > 0 {
		do.run()
	}
	if len(da.log) != len(do.log) {
		t.Fatalf("seed %d: log length %d vs oracle %d", seed, len(da.log), len(do.log))
	}
	for i := range da.log {
		if da.log[i] != do.log[i] {
			t.Fatalf("seed %d: log[%d] = %q vs oracle %q", seed, i, da.log[i], do.log[i])
		}
	}
	if da.pending() != 0 || do.pending() != 0 {
		t.Fatalf("seed %d: drained pending %d/%d, want 0", seed, da.pending(), do.pending())
	}
}

func TestArenaMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		da, do := runDrivers(nil)
		replayAgainstOracle(t, seed, genArenaScript(NewRNG(seed), 400), da, do)
	}
}

// TestRunMatchesHeapOracle replays run-heavy scripts against the
// container/heap oracle and requires that they reached the run, cancelled
// run entries both at and behind its front (leaving tombstones), and
// cancelled stale handles whose slots were reused.
func TestRunMatchesHeapOracle(t *testing.T) {
	var st runStats
	for seed := int64(1); seed <= 12; seed++ {
		da, do := runDrivers(&st)
		replayAgainstOracle(t, seed, genRunScript(NewRNG(seed), 600), da, do)
	}
	t.Logf("run: %d events fired from the run, %d tombstones, %d front cancels, %d stale cancels on reused slots",
		st.runFired, st.tombstoned, st.frontCancels, st.staleReused)
	if st.runFired == 0 || st.tombstoned == 0 || st.frontCancels == 0 || st.staleReused == 0 {
		t.Fatal("the scripts missed a run case (see the counts above)")
	}
}

func TestArenaAtCallMatchesAt(t *testing.T) {
	// AtCall must interleave with At in strict (time, seq) order.
	s := New()
	var got []int
	type tag struct{ id int }
	s.At(10, func() { got = append(got, 1) })
	s.AtCall(10, func(_ Time, a any) { got = append(got, a.(*tag).id) }, &tag{id: 2})
	s.AtCall(5, func(_ Time, a any) { got = append(got, a.(*tag).id) }, &tag{id: 0})
	s.At(10, func() { got = append(got, 3) })
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed At/AtCall order: %v", got)
		}
	}
}

func BenchmarkArenaScheduleFire(b *testing.B) {
	s := New()
	var sink int
	fn := func(Time, any) { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtCall(s.Now()+1, fn, nil)
		s.Step()
	}
	_ = sink
}

// BenchmarkSimScheduleFire prices scheduling and firing one near-term
// event (a device event) with depth other events pending, some ops also
// firing one of those. "sorted" holds
// the pending events in time order — injected arrivals, each rescheduled
// one span later when it fires; "random" injects them shuffled and
// reschedules each at a random offset.
func BenchmarkSimScheduleFire(b *testing.B) {
	for _, depth := range []int{10, 10000} {
		for _, order := range []string{"sorted", "random"} {
			b.Run(fmt.Sprintf("depth=%d/%s", depth, order), func(b *testing.B) {
				s := New()
				rng := NewRNG(1)
				span := Time(depth) * 10
				refire := func(now Time, a any) {
					if order == "sorted" {
						s.AtCall(now+span, a.(func(Time, any)), a)
					} else {
						s.AtCall(now+Time(rng.Uniform(0, 2*float64(span))), a.(func(Time, any)), a)
					}
				}
				times := make([]Time, depth)
				for i := range times {
					times[i] = Time(i+1) * 10
				}
				if order == "random" {
					for i := len(times) - 1; i > 0; i-- {
						j := int(rng.Uniform(0, float64(i+1)))
						times[i], times[j] = times[j], times[i]
					}
				}
				for _, at := range times {
					s.AtCall(at, refire, refire)
				}
				// Each op fires its own near event, plus any pending event
				// due first, so the population holds at depth.
				var fired bool
				near := func(Time, any) { fired = true }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.AtCall(s.Now()+0.5, near, nil)
					for fired = false; !fired; {
						s.Step()
					}
				}
				b.StopTimer()
				if s.Pending() != depth {
					b.Fatalf("pending %d, want %d", s.Pending(), depth)
				}
			})
		}
	}
}
