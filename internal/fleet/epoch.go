package fleet

import (
	"sort"

	"poly/internal/sim"
)

// drainEpochs is the per-shard drain loop: the conservative epoch
// coordinator, stepped inline on the caller's goroutine. The router is
// the only cross-shard edge and every arrival time is known before
// Collect, so the lookahead rule is exact: between two consecutive
// routed arrivals, every shard's events are independent of every other
// shard's, and each shard can be advanced to the next arrival on its own.
//
// Bit-identity with the shared clock hinges on event ordering at the
// arrival instant itself. On a shared simulator the routing event was
// scheduled at injection time — before the run — so at its firing time t
// it precedes every event the run schedules at t (larger sequence
// numbers) but follows pre-run events at t (smaller ones, e.g. the
// construction-scheduled first governor tick). The coordinator
// reproduces that interleaving with a per-shard sequence barrier: marks
// snapshot each shard's next sequence number before any event fires, so
// RunUntilBarrier(t, mark) fires exactly the events that would have
// preceded the routing event at t, the router then places the arrival
// (injection order among equal times — the shared clock's FIFO rule),
// and the epoch after the barrier releases the run-scheduled events at
// t. The drain loop then replays Server.Collect's governor-period
// horizon sequence per shard, so final clocks and power-sample times
// also match bit-exactly.
func (f *Fleet) drainEpochs(period sim.Time) {
	for _, sh := range f.shards {
		sh.mark = sh.sim.SeqMark()
	}
	// Stable: equal-time arrivals keep injection order, which is the
	// sequence order their routing events would have had.
	sort.SliceStable(f.arrivals, func(i, j int) bool { return f.arrivals[i] < f.arrivals[j] })
	horizon := f.shards[0].sim.Now() + period
	for !f.drained() {
		f.advanceTo(horizon)
		horizon += period
	}
	f.advanceTo(horizon)
}

// advanceTo drives every shard to horizon h: for each arrival time t <=
// h, barrier-advance all shards to t, route the arrivals at t in
// injection order, then (once no arrival remains before h) advance all
// shards fully to h.
func (f *Fleet) advanceTo(h sim.Time) {
	for f.cursor < len(f.arrivals) && f.arrivals[f.cursor] <= h {
		t := f.arrivals[f.cursor]
		for _, sh := range f.shards {
			sh.sim.RunUntilBarrier(t, sh.mark)
		}
		for f.cursor < len(f.arrivals) && f.arrivals[f.cursor] == t {
			f.routeOne()
			f.cursor++
		}
	}
	for _, sh := range f.shards {
		sh.sim.RunUntil(h)
	}
}
