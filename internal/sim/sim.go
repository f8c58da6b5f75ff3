// Package sim provides a deterministic discrete-event simulation core used
// by the device, runtime, and experiment layers of Poly.
//
// A Simulator owns a virtual clock and a priority queue of events. Events
// fire in (time, insertion-order) order, so runs are fully deterministic
// for a fixed seed and schedule. Time is measured in milliseconds, the
// natural unit of the paper's latency bounds (e.g. a 200 ms p99 target).
//
// Events live in a simulator-owned arena: scheduling reuses slots from a
// free list instead of allocating, and the queue is a flat 4-ary indexed
// heap over slot indices beside a sorted FIFO run: an event scheduled at
// or after the run's tail (every arrival of a trace injected in time
// order) is appended to the run in O(1) instead of sifting through the
// heap, and each step fires whichever of the two fronts is earlier.
// Callers refer to scheduled events through generation-counted Handles,
// so Cancel on an event that already fired (and whose slot was recycled)
// is a safe no-op.
package sim

import "fmt"

// Time is a point in virtual time, in milliseconds since simulation start.
type Time float64

// Duration is a span of virtual time in milliseconds.
type Duration = Time

// String formats the time as milliseconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)) }

// Handle identifies a scheduled event. The zero Handle is invalid. A
// Handle stays distinguishable from later events that reuse the same
// arena slot: each slot carries a generation counter that is bumped when
// the slot is recycled, so Cancel with a stale Handle returns false.
type Handle struct {
	idx int32
	gen uint32
}

// Valid reports whether the handle was ever issued by a simulator. It
// does not imply the event is still pending; use Cancel's return value
// for that.
func (h Handle) Valid() bool { return h.gen != 0 }

// eventSlot is one arena entry. A slot is pending in the heap (heapIdx >=
// 0), pending in the run (slotInRun), a cancelled run entry waiting for
// the run to drop it (slotTombstone), or on the free list (slotFree;
// nextFree links the list).
type eventSlot struct {
	at       Time
	seq      uint64
	gen      uint32
	heapIdx  int32
	nextFree int32
	// Exactly one of fn or action is set while pending. fn+arg is the
	// closure-free form: hot callers pass a top-level function and a
	// long-lived argument so scheduling captures nothing.
	fn     func(Time, any)
	arg    any
	action func()
}

// Slot states besides a heap position.
const (
	slotFree      = -1
	slotInRun     = -2
	slotTombstone = -3
)

// Simulator is a single-threaded discrete-event simulator. The zero value
// is not usable; construct with New.
type Simulator struct {
	now   Time
	seq   uint64
	slots []eventSlot
	free  int32 // head of the free-slot list; -1 when empty
	heap  []int32
	// run is a ring of slot indices (length a power of two) holding
	// runLen entries from runHead, in increasing (at, seq) order.
	// Cancelled entries stay as tombstones until they reach the front,
	// which is always live; runLive counts the live ones.
	run     []int32
	runHead int
	runLen  int
	runLive int
	fired   uint64
	halted  bool
}

// New returns a simulator with the clock at zero and an empty event queue.
func New() *Simulator {
	return &Simulator{free: -1}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.heap) + s.runLive }

// schedule claims an arena slot for an event at the (past-clamped) time
// and queues it: appended to the run when it is not earlier than the
// run's tail — its seq is the largest yet, so the run stays sorted by
// (at, seq) — and pushed on the heap otherwise. The caller fills in the
// callback fields.
func (s *Simulator) schedule(at Time) (int32, Handle) {
	if at < s.now {
		at = s.now
	}
	var idx int32
	if s.free >= 0 {
		idx = s.free
		s.free = s.slots[idx].nextFree
	} else {
		s.slots = append(s.slots, eventSlot{gen: 1})
		idx = int32(len(s.slots) - 1)
	}
	e := &s.slots[idx]
	e.at = at
	e.seq = s.seq
	s.seq++
	if s.runLen == 0 || at >= s.slots[s.run[(s.runHead+s.runLen-1)&(len(s.run)-1)]].at {
		s.runPush(idx)
	} else {
		s.heapPush(idx)
	}
	return idx, Handle{idx: idx, gen: e.gen}
}

// release recycles a slot (fired or cancelled) onto the free list. The
// generation bump invalidates any outstanding Handles to it.
func (s *Simulator) release(idx int32) {
	e := &s.slots[idx]
	e.gen++
	e.heapIdx = slotFree
	e.fn = nil
	e.arg = nil
	e.action = nil
	e.nextFree = s.free
	s.free = idx
}

// At schedules action to run at absolute time at. Scheduling in the past
// (before Now) clamps to Now: the event fires next, without rewinding the
// clock. The returned Handle may be passed to Cancel.
func (s *Simulator) At(at Time, action func()) Handle {
	idx, h := s.schedule(at)
	s.slots[idx].action = action
	return h
}

// After schedules action to run d milliseconds from now. Negative delays
// clamp to zero.
func (s *Simulator) After(d Duration, action func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, action)
}

// AtCall schedules fn(firingTime, arg) at absolute time at, with the same
// past-clamp rule as At. It is the allocation-free form of At: passing a
// top-level function and a long-lived argument schedules without
// capturing, so the hot serving path creates no closure garbage.
func (s *Simulator) AtCall(at Time, fn func(Time, any), arg any) Handle {
	idx, h := s.schedule(at)
	e := &s.slots[idx]
	e.fn = fn
	e.arg = arg
	return h
}

// AfterCall schedules fn(firingTime, arg) d milliseconds from now.
// Negative delays clamp to zero.
func (s *Simulator) AfterCall(d Duration, fn func(Time, any), arg any) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtCall(s.now+d, fn, arg)
}

// Cancel removes a scheduled event. Cancelling an event that already
// fired, was already cancelled, or whose Handle is zero is a no-op and
// returns false — the slot generation check makes stale Handles inert
// even after the slot has been reused by a later event. A run entry
// becomes a tombstone: its generation is bumped at once, and its slot is
// recycled only when the run drops it.
func (s *Simulator) Cancel(h Handle) bool {
	if h.gen == 0 || int(h.idx) >= len(s.slots) {
		return false
	}
	e := &s.slots[h.idx]
	if e.gen != h.gen {
		return false
	}
	switch {
	case e.heapIdx >= 0:
		s.heapRemove(e.heapIdx)
		s.release(h.idx)
	case e.heapIdx == slotInRun:
		e.gen++
		e.heapIdx = slotTombstone
		e.fn, e.arg, e.action = nil, nil, nil
		s.runLive--
		s.runDropTombstones()
	default:
		return false
	}
	return true
}

// Halt stops the current Run/RunUntil after the in-flight event completes.
// Remaining events stay queued.
func (s *Simulator) Halt() { s.halted = true }

// Step fires the single earliest event, advancing the clock to it. It
// returns false if the queue is empty. The event's slot is recycled
// before the callback runs, so callbacks that schedule new events reuse
// it immediately.
func (s *Simulator) Step() bool {
	idx := s.next()
	if idx < 0 {
		return false
	}
	s.fire(idx)
	return true
}

// fire dequeues the earliest event, idx (from next), and runs it.
func (s *Simulator) fire(idx int32) {
	if s.slots[idx].heapIdx == slotInRun {
		s.runPop()
	} else {
		n := len(s.heap) - 1
		s.heap[0] = s.heap[n]
		s.slots[s.heap[0]].heapIdx = 0
		s.heap = s.heap[:n]
		if n > 1 {
			s.siftDown(0)
		}
	}
	e := &s.slots[idx]
	s.now = e.at
	s.fired++
	fn, arg, action := e.fn, e.arg, e.action
	s.release(idx)
	if fn != nil {
		fn(s.now, arg)
	} else if action != nil {
		action()
	}
}

// Run fires events until the queue is empty or Halt is called.
func (s *Simulator) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// RunUntil fires events with firing time ≤ deadline, then advances the
// clock to deadline (if it is ahead of the last event). Events scheduled
// after deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	s.halted = false
	for !s.halted {
		idx := s.next()
		if idx < 0 || s.slots[idx].at > deadline {
			break
		}
		s.fire(idx)
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// SeqMark returns the sequence number the next scheduled event will be
// assigned. Events already scheduled all have seq below the mark; events
// scheduled after the call all have seq at or above it. The fleet epoch
// coordinator snapshots the mark at run start to tell construction-time
// events apart from run-scheduled ones when both land on the same
// instant (see RunUntilBarrier).
func (s *Simulator) SeqMark() uint64 { return s.seq }

// RunUntilBarrier fires events strictly before deadline, plus events at
// exactly deadline whose sequence number is below mark, then advances
// the clock to deadline. It is the epoch-step primitive of the fleet
// epoch coordinator: with mark taken at run start (SeqMark), the events
// fired are exactly those that preceded a barrier event at (deadline,
// mark) in a shared-simulator run — pre-run events at the deadline fire,
// run-scheduled ones hold until after the barrier's owner (e.g. a
// routing decision) has run. Events at the deadline with seq >= mark
// stay queued and fire on the next advance past the deadline.
func (s *Simulator) RunUntilBarrier(deadline Time, mark uint64) {
	s.halted = false
	for !s.halted {
		idx := s.next()
		if idx < 0 {
			break
		}
		e := &s.slots[idx]
		if e.at > deadline || (e.at == deadline && e.seq >= mark) {
			break
		}
		s.fire(idx)
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// next returns the slot of the earliest pending event — the lesser of the
// heap's top and the run's front — or -1 when none is pending.
func (s *Simulator) next() int32 {
	if s.runLen == 0 {
		if len(s.heap) == 0 {
			return -1
		}
		return s.heap[0]
	}
	r := s.run[s.runHead]
	if len(s.heap) > 0 && s.less(s.heap[0], r) {
		return s.heap[0]
	}
	return r
}

// runPush appends a slot to the run's tail, doubling the ring when full.
func (s *Simulator) runPush(idx int32) {
	if s.runLen == len(s.run) {
		grown := make([]int32, max(2*len(s.run), 64))
		for i := 0; i < s.runLen; i++ {
			grown[i] = s.run[(s.runHead+i)&(len(s.run)-1)]
		}
		s.run, s.runHead = grown, 0
	}
	s.run[(s.runHead+s.runLen)&(len(s.run)-1)] = idx
	s.runLen++
	s.runLive++
	s.slots[idx].heapIdx = slotInRun
}

// runPop removes the run's (live) front entry, then drops any tombstones
// that reach the front.
func (s *Simulator) runPop() {
	s.runHead = (s.runHead + 1) & (len(s.run) - 1)
	s.runLen--
	s.runLive--
	s.runDropTombstones()
}

// runDropTombstones recycles cancelled entries at the run's front, so the
// front is always a live event (or the run is empty).
func (s *Simulator) runDropTombstones() {
	for s.runLen > 0 {
		idx := s.run[s.runHead]
		if s.slots[idx].heapIdx != slotTombstone {
			return
		}
		s.runHead = (s.runHead + 1) & (len(s.run) - 1)
		s.runLen--
		s.release(idx)
	}
}

// less orders pending events by (time, sequence number): strict FIFO
// among same-time events, independent of heap shape.
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.slots[a], &s.slots[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// The heap is 4-ary: children of i are 4i+1..4i+4. Wider nodes mean a
// shallower tree — fewer cache-missing levels per sift for the large
// queues a loaded serving simulation builds up.

func (s *Simulator) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	s.slots[idx].heapIdx = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
}

// siftUp restores the heap property above position i, returning the
// element's final position.
func (s *Simulator) siftUp(i int) int {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 4
		if !s.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		s.slots[h[i]].heapIdx = int32(i)
		s.slots[h[p]].heapIdx = int32(p)
		i = p
	}
	return i
}

// siftDown restores the heap property below position i, returning the
// element's final position.
func (s *Simulator) siftDown(i int) int {
	h := s.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return i
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(h[c], h[best]) {
				best = c
			}
		}
		if !s.less(h[best], h[i]) {
			return i
		}
		h[i], h[best] = h[best], h[i]
		s.slots[h[i]].heapIdx = int32(i)
		s.slots[h[best]].heapIdx = int32(best)
		i = best
	}
}

// heapRemove deletes the element at heap position pos (used by Cancel;
// Step pops the root inline).
func (s *Simulator) heapRemove(pos int32) {
	h := s.heap
	n := len(h) - 1
	removed := h[pos]
	if int(pos) != n {
		h[pos] = h[n]
		s.slots[h[pos]].heapIdx = pos
	}
	s.heap = h[:n]
	if int(pos) < n {
		if s.siftDown(int(pos)) == int(pos) {
			s.siftUp(int(pos))
		}
	}
	s.slots[removed].heapIdx = slotFree
}
