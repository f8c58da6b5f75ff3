package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var names []string
	for _, w := range readBenchmarkFile(t).Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, specNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, specNames())
	}
}

// TestEveryMetricPrinted runs each workload at a tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit, in the report and in the JSON result.
func TestEveryMetricPrinted(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			var out strings.Builder
			res, err := execute(options{
				workload: s.name, seed: 1, seconds: 0.5, trace: traced,
				out: t.TempDir(), scale: 0.02,
			}, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					s.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", s.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", s.name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s traced=%v: report does not print %s", s.name, traced, m.Name)
				}
			}
		}
	}
}

// TestDigestFlagsDifferentSeed serves one seed's inputs, then another's,
// in one runner: the second repetition must fail the digest check and
// count all of its requests as failed.
func TestDigestFlagsDifferentSeed(t *testing.T) {
	s, _ := specByName("low-load")
	s = s.scaled(0.02)
	r := newRunner(s, 1)
	if _, err := r.repeat(nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 || r.failed != 0 {
		t.Fatalf("first repetition: problems %v, failed %d", r.problems, r.failed)
	}
	r.in = generate(s, 2)
	if _, err := r.repeat(nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "digest") {
		t.Fatalf("problems %v, want one digest mismatch", r.problems)
	}
	if r.failed != r.in.total {
		t.Fatalf("failed %d, want all %d requests of the bad repetition", r.failed, r.in.total)
	}
}

// TestConservationFlagsBreak fabricates accounting breaks in real
// outcomes and checks that each is reported.
func TestConservationFlagsBreak(t *testing.T) {
	for _, name := range []string{"low-load", "fleet-diurnal"} {
		s, _ := specByName(name)
		s = s.scaled(0.02)
		b, _, err := setup(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, _ := serve(s, b, generate(s, 1), nil)
		if len(o.problems) != 0 {
			t.Fatalf("%s: clean run reported %v", name, o.problems)
		}
		breaks := map[string]func(*outcome){
			"lost completion":  func(o *outcome) { o.completed-- },
			"phantom arrival":  func(o *outcome) { o.arrivals++ },
			"uncounted inject": func(o *outcome) { o.injected++ },
		}
		if o.placements != nil {
			breaks["lost placement"] = func(o *outcome) { o.placements = []int{o.placements[0] - 1} }
		}
		for what, brk := range breaks {
			c := o
			c.placements = slices.Clone(o.placements)
			c.problems = nil
			brk(&c)
			c.checkConservation()
			if len(c.problems) == 0 {
				t.Errorf("%s: %s not flagged", name, what)
			}
		}
	}
}

func TestAttribution(t *testing.T) {
	a := newAttribution()
	a.charge([]frame{
		{fn: "runtime.mapaccess2", file: "/go/src/runtime/map.go"},
		{fn: "poly/internal/sched.(*PlanCache).get", file: "/src/internal/sched/plancache.go"},
		{fn: "poly/internal/runtime.(*Server).admit", file: "/src/internal/runtime/server.go"},
		{fn: "main.main", file: "/src/perfbench/main.go"},
	}, 10)
	a.charge([]frame{{fn: "poly/internal/device.(*GPUDevice).NextFreeAt"}}, 20)
	a.charge([]frame{{fn: "runtime.gcBgMarkWorker"}}, 30)
	a.charge([]frame{{fn: "main.serve"}, {fn: "main.main"}}, 5)
	a.charge([]frame{{fn: "poly/internal/metrics.Foo"}}, 5)
	if a.ns["sched"] != 10 || a.plancacheNS != 10 {
		t.Errorf("sched %d, plancache %d: map hashing must be charged to its poly caller", a.ns["sched"], a.plancacheNS)
	}
	if a.ns["device"] != 20 || a.ns[layerGo] != 30 || a.backgroundNS != 30 {
		t.Errorf("device %d, go %d, background %d", a.ns["device"], a.ns[layerGo], a.backgroundNS)
	}
	if a.ns[layerBench] != 5 || a.ns[layerOther] != 5 {
		t.Errorf("bench %d, other %d", a.ns[layerBench], a.ns[layerOther])
	}
	if got, want := a.covered(), 60.0/70; math.Abs(got-want) > 1e-12 {
		t.Errorf("covered %v, want %v", got, want)
	}
}
