package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"poly/internal/sim"
	"poly/internal/trace"
)

// qosMaxRPS is the Heter-Poly ASR node's maximum QoS-compliant arrival
// rate on Setting I at the program's default bound, as
// runtime.Bench.MaxThroughputRPS(256, 12 000, 1) finds it (92.64 RPS).
// The workload rates below are stated against it.
const qosMaxRPS = 92.6

// spec is one named workload: the traffic the benchmark generates and
// how it is cut into independent sessions.
type spec struct {
	name string
	// nodes is 1 for a single-node session, >1 for a fleet behind the
	// least-util router.
	nodes int
	// sessions is the number of independent single-node sessions per
	// repetition. Averaging per-session outcomes over many sessions keeps
	// the simulated metrics steady across seeds; overload needs the most,
	// because each session settles into its own GPU/FPGA placement mix.
	sessions int
	// rps is the Poisson arrival rate of each single-node session.
	rps float64
	// durationMS is each session's (or the fleet's) arrival window in
	// simulated milliseconds.
	durationMS float64
}

// specs are the workloads; BENCHMARK.json records why each was chosen.
// All serve ASR on a Heter-Poly Setting-I node at the program's default
// bound, with open-loop arrivals.
var specs = []spec{
	{
		name:       "low-load",
		nodes:      1,
		sessions:   8,
		rps:        10,
		durationMS: 300_000,
	},
	{
		// 12 s is the experiment harness's max-throughput probe length.
		name:       "overload",
		nodes:      1,
		sessions:   128,
		rps:        200,
		durationMS: 12_000,
	},
	{
		name:       "fleet-diurnal",
		nodes:      4,
		sessions:   1,
		durationMS: 120_000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for tests: fewer sessions, shorter windows.
func (s spec) scaled(f float64) spec {
	if f >= 1 {
		return s
	}
	s.sessions = max(1, int(math.Round(float64(s.sessions)*f)))
	s.durationMS *= f
	return s
}

// warmupMS mirrors runtime.Bench.ServeConstantLoad: the first 20 % of
// the window, capped at 5 s, is excluded from the latency statistics.
func (s spec) warmupMS() float64 { return min(0.2*s.durationMS, 5000) }

// inputs are a workload's generated arrivals: one sorted arrival-time
// slice per session (or one for the whole fleet).
type inputs struct {
	arrivals [][]sim.Time
	total    int
}

// generate builds the arrivals from the seed alone. Single-node sessions
// draw Poisson streams one after another from one seeded source; the
// fleet replays the seed's synthesized 24 h utilization shape,
// compressed into the window, as a piecewise-constant Poisson rate.
func generate(s spec, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	var in inputs
	if s.nodes > 1 {
		tr := trace.Synthesize(trace.SynthOptions{Seed: seed})
		step := s.durationMS / float64(len(tr.Util))
		peak := float64(s.nodes) * 0.8 * qosMaxRPS
		var arr []sim.Time
		for i, u := range tr.Util {
			arr = poisson(rng, arr, peak*u, float64(i)*step, step)
		}
		in.arrivals = [][]sim.Time{arr}
	} else {
		for i := 0; i < s.sessions; i++ {
			in.arrivals = append(in.arrivals, poisson(rng, nil, s.rps, 0, s.durationMS))
		}
	}
	for _, a := range in.arrivals {
		in.total += len(a)
	}
	return in
}

// poisson appends a Poisson arrival process of the given rate over
// [start, start+span) milliseconds.
func poisson(rng *rand.Rand, arr []sim.Time, rps, start, span float64) []sim.Time {
	if rps <= 0 {
		return arr
	}
	gap := 1000 / rps
	for t := start + rng.ExpFloat64()*gap; t < start+span; t += rng.ExpFloat64() * gap {
		arr = append(arr, sim.Time(t))
	}
	return arr
}

// outcome is the modelled result of one repetition, pooled over its
// sessions, plus the raw counts the correctness check and the per-layer
// metrics read.
type outcome struct {
	injected, arrivals, completed, shed, failed, planErrors int
	measured, violations                                    int
	// p50/p99/mean are per-session latency statistics averaged over
	// sessions (the fleet's are its aggregate's).
	p50MS, p99MS, meanMS float64
	energyMJ             float64
	durationMS           float64
	gpuTasks             int
	fpgaTasks            int
	gpuLaunches          int
	reconfigs            int
	cacheHits            int
	cacheMisses          int
	// simEvents and pendingPeak are single-node only: a parallel fleet's
	// per-shard simulators are not public.
	simEvents   uint64
	pendingPeak int
	// Fleet-only counts.
	placements []int
	fleetShed  int
	epochs     int
	telSpans   int
	digest     uint64
	problems   []string
}

func (o *outcome) avgPowerW() float64 { return o.energyMJ / o.durationMS }

func (o *outcome) throughputRPS() float64 {
	return float64(o.completed) / o.durationMS * 1000
}

// violationRatio counts shed, failed and unplanned requests as misses.
func (o *outcome) violationRatio() float64 {
	lost := o.shed + o.failed + o.planErrors
	return ratio(float64(o.violations+lost), float64(o.measured+lost))
}

// lost is the number of injected requests that did not complete.
func (o *outcome) lost() int { return o.injected - o.completed }

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// addBits folds the bit patterns of simulated outputs into a digest.
func addBits(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// checkConservation verifies the request-accounting laws the serving
// path must keep: every injected request arrived, and every arrival was
// completed, shed, failed or rejected by the planner. For a fleet, every
// injected request was placed on a node or shed by the router.
func (o *outcome) checkConservation() {
	if o.arrivals != o.injected {
		o.problem("conservation: %d injected but %d arrived", o.injected, o.arrivals)
	}
	if sum := o.completed + o.shed + o.failed + o.planErrors; sum != o.arrivals {
		o.problem("conservation: %d arrivals but completed+shed+failed+plan errors = %d", o.arrivals, sum)
	}
	if o.placements != nil {
		placed := 0
		for _, p := range o.placements {
			placed += p
		}
		if placed+o.fleetShed != o.injected {
			o.problem("conservation: %d injected but placements+fleet shed = %d", o.injected, placed+o.fleetShed)
		}
	}
}

// median returns the median of vs (0 for none); vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
