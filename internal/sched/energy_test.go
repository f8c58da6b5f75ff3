package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"poly/internal/analysis"
	"poly/internal/apps"
	"poly/internal/cluster"
	"poly/internal/device"
	"poly/internal/dse"
	"poly/internal/model"
)

// randomNode builds a shuffled device vector with 1–2 GPUs and 0–5 FPGAs.
// Names do not sort in index order ("gpu10" sorts before "gpu2"), backlogs
// sometimes exceed the energy step's 0.2 × bound filter, some boards run
// at a non-nominal DVFS point (0 stands for nominal), and FPGAs hold a
// random kernel's bitstream — the planned kernel's own for one kernel,
// another kernel's for the rest — an unknown ID, or nothing.
func randomNode(rng *rand.Rand, st cluster.Setting, fpgaImpls []*model.Impl, gpuImpls []*model.Impl, boundMS float64) []DeviceState {
	freqs := []float64{0, 1, 1, 0.6, 0.8, 0.8, 1.2}
	backlog := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 0.2 * boundMS
		case 2:
			return (0.15 + 0.1*rng.Float64()) * boundMS
		}
		return rng.Float64() * 1.5 * boundMS
	}
	var devs []DeviceState
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		d := DeviceState{Name: []string{"gpu2", "gpu10"}[i], Class: device.GPU,
			FreeAtMS: backlog(), FreqScale: freqs[rng.Intn(len(freqs))]}
		if rng.Intn(4) == 0 {
			d.LoadedImpl = ImplID(gpuImpls[rng.Intn(len(gpuImpls))])
		}
		devs = append(devs, d)
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		d := DeviceState{Name: fmt.Sprintf("fpga%d", []int{3, 11, 0, 7, 1}[i]), Class: device.FPGA,
			FreeAtMS: backlog(), ReconfigMS: st.FPGA.ReconfigMS, FreqScale: 1}
		if rng.Intn(3) == 0 {
			d.FreqScale = freqs[rng.Intn(len(freqs))]
		}
		switch r := rng.Intn(8); {
		case r < 3 && len(fpgaImpls) > 0:
			d.LoadedImpl = ImplID(fpgaImpls[rng.Intn(len(fpgaImpls))])
		case r == 3:
			d.LoadedImpl = "unknown|bitstream"
		}
		devs = append(devs, d)
	}
	rng.Shuffle(len(devs), func(i, j int) { devs[i], devs[j] = devs[j], devs[i] })
	return devs
}

// TestEnergyStepMatchesReference drives the incremental planner and the
// full-rerank reference (energy_ref_test.go) with the same randomized
// inputs — every app × every setting whose DSE succeeds, random backlogs,
// DVFS points, residency, load hint, group size, slack factor, bound and
// throughput mode — and requires bit-identical plans.
func TestEnergyStepMatchesReference(t *testing.T) {
	trials := 250
	if testing.Short() {
		trials = 120
	}
	var plans, swapped, swaps, missed int
	for ai, app := range apps.All() {
		pa, err := analysis.AnalyzeProgram(app.Program, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for si, st := range cluster.Settings() {
			ks, err := dse.ExploreProgram(pa, st.GPU, st.FPGA)
			if err != nil {
				continue // some kernels fit no board of this setting
			}
			s, err := New(app.Program, ks)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(app.Program, ks)
			if err != nil {
				t.Fatal(err)
			}
			s.SetPlanCacheCapacity(0)
			var fpgaImpls, gpuImpls []*model.Impl
			for _, k := range app.Program.Kernels() {
				if sp := ks.Space(k.Name, device.FPGA); sp != nil {
					fpgaImpls = append(fpgaImpls, sp.Pareto...)
				}
				if sp := ks.Space(k.Name, device.GPU); sp != nil {
					gpuImpls = append(gpuImpls, sp.Pareto...)
				}
			}
			rng := rand.New(rand.NewSource(int64(1 + 10*ai + si)))
			for trial := 0; trial < trials; trial++ {
				load := float64(rng.Intn(201))
				batch := 1 + rng.Intn(s.MaxGPUBatch())
				slack := 0.1 + 0.9*rng.Float64()
				tp := rng.Intn(5) == 0
				bound := app.Program.LatencyBoundMS * (0.3 + 1.7*rng.Float64())
				if rng.Intn(6) == 0 {
					bound = 0 // the program's own bound
				}
				for _, p := range []*Scheduler{s, ref} {
					p.SetLoadHint(load)
					p.SetBatchSize(batch)
					p.SetSlackFactor(slack)
					p.SetThroughputMode(tp)
				}
				filterBound := bound
				if filterBound <= 0 {
					filterBound = app.Program.LatencyBoundMS
				}
				devs := randomNode(rng, st, fpgaImpls, gpuImpls, filterBound)
				label := fmt.Sprintf("%s %s trial %d", app.Name, st.Name, trial)
				got, gerr := s.Schedule(devs, bound)
				want, werr := ref.refScheduleCold(devs, bound)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("%s: errors differ: %v vs reference %v", label, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				plansBitIdentical(t, label, got, want)
				plans++
				if got.EnergySwaps > 0 {
					swapped++
					swaps += got.EnergySwaps
				}
				if got.MakespanMS > got.BoundMS {
					missed++
				}
			}
		}
	}
	t.Logf("%d plans: %d with energy swaps (%d swaps), %d past the bound (repair ran)", plans, swapped, swaps, missed)
	// The inputs must exercise what they claim to: multi-round Step 2 and
	// latency repair.
	if swapped < plans/10 || swaps < 2*swapped || missed < plans/20 {
		t.Fatalf("randomized inputs under-exercise the planner: %d plans, %d swapped, %d swaps, %d missed",
			plans, swapped, swaps, missed)
	}
}

// TestDuplicateDeviceNamesRejected: boards are identified by index during
// planning, which matches identifying them by name only when names are
// unique, so both cold entry points reject a vector with a repeated name —
// and no plan is cached for it.
func TestDuplicateDeviceNamesRejected(t *testing.T) {
	s, _, _ := buildSched(t)
	devs := settingIDevices()
	devs[3].Name = devs[1].Name
	for i := 0; i < 3; i++ {
		if _, err := s.Schedule(devs, 0); err == nil || !strings.Contains(err.Error(), "duplicate device name") {
			t.Fatalf("Schedule call %d: err = %v, want a duplicate device name error", i, err)
		}
	}
	if n := s.PlanCacheLen(); n != 0 {
		t.Fatalf("%d plans cached for a rejected device vector", n)
	}
	if _, err := s.PlaceKernel("k1", devs); err == nil || !strings.Contains(err.Error(), "duplicate device name") {
		t.Fatalf("PlaceKernel: err = %v, want a duplicate device name error", err)
	}
	// The same vector with the name fixed plans normally.
	devs[3].Name = "fpga9"
	if _, err := s.Schedule(devs, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlaceKernel("k1", devs); err != nil {
		t.Fatal(err)
	}
}
