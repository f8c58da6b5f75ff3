package sched

import (
	"testing"

	"poly/internal/analysis"
	"poly/internal/apps"
	"poly/internal/cluster"
	"poly/internal/device"
	"poly/internal/dse"
)

// steadyDevices models the node state a mid-load steady phase presents
// over and over: one warm GPU and five FPGAs holding provisioned
// bitstreams, with a small repeating backlog on the GPU.
func steadyDevices(s *Scheduler) []DeviceState {
	devs := settingIDevices()
	kernels := s.Program().Kernels()
	for i := 1; i < len(devs) && i-1 < len(kernels); i++ {
		if im := s.PreferredFPGAImpl(kernels[i-1].Name); im != nil {
			devs[i].LoadedImpl = ImplID(im)
		}
	}
	devs[0].FreeAtMS = 3.5
	return devs
}

// BenchmarkSchedule measures one full two-step planning call against a
// repeating steady-state node — the exact shape the plan cache fast-paths.
func BenchmarkSchedule(b *testing.B) {
	s, _, _ := buildSched(b)
	s.SetLoadHint(40)
	devs := steadyDevices(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(devs, 0); err != nil {
			b.Fatal(err)
		}
	}
	h, m := s.PlanCacheStats()
	if h+m > 0 {
		b.ReportMetric(float64(h)/float64(h+m), "hitRate")
	}
}

// BenchmarkScheduleUncached is the same call with the plan cache disabled:
// the planner's raw two-step cost, tracking the scratch-buffer reuse and
// impl-ID interning wins independently of memoization.
func BenchmarkScheduleUncached(b *testing.B) {
	s, _, _ := buildSched(b)
	s.SetLoadHint(40)
	s.SetPlanCacheCapacity(0)
	devs := steadyDevices(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(devs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleChurn drives the planner with a device state that never
// repeats (worst case for the cache): every iteration is a miss. Past the
// first planCacheBackoffRun misses the cache backs off and only one plan
// in planCacheProbeEvery renders a key, so this tracks the cold planner
// plus the backoff's residual cache cost.
func BenchmarkScheduleChurn(b *testing.B) {
	s, _, _ := buildSched(b)
	s.SetLoadHint(40)
	devs := steadyDevices(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		devs[0].FreeAtMS = float64(i%100000) * 1e-3
		if _, err := s.Schedule(devs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleEnergyStep is the cold planner for the ASR app on a
// light-load Setting-I node — blank FPGAs, a small GPU backlog, load hint
// 10 — where Step 2 spends the slack over many swap rounds. swaps/op is
// the number of energy swaps each plan applies.
func BenchmarkScheduleEnergyStep(b *testing.B) {
	app := apps.All()[0]
	pa, err := analysis.AnalyzeProgram(app.Program, analysis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ks, err := dse.ExploreProgram(pa, cluster.SettingI.GPU, cluster.SettingI.FPGA)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(app.Program, ks)
	if err != nil {
		b.Fatal(err)
	}
	s.SetLoadHint(10)
	s.SetPlanCacheCapacity(0)
	devs := settingIDevices()
	devs[0].FreeAtMS = 2
	var swaps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Schedule(devs, 0)
		if err != nil {
			b.Fatal(err)
		}
		swaps = p.EnergySwaps
	}
	b.ReportMetric(float64(swaps), "swaps/op")
}

var _ = device.GPU
