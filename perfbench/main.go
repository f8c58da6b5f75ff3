// Command perfbench is the repository's benchmark. It runs one named
// workload through the library (compile → DSE → session or fleet →
// inject → drain → summarize), checks that the outputs are correct, and
// prints every metric by name and unit, ending with one JSON line. From
// the repository root:
//
//	bash perfbench/run.sh --workload low-load --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced repetitions. Host
// cost is process CPU time (user and system, all threads), not wall time:
// on a shared virtual machine, time the hypervisor gives to other guests
// moves wall time more than CPU time.
// --trace 1 reports the per-layer metrics: after untraced repetitions it
// runs traced ones that record spans around every call into a layer,
// sample a CPU profile, and write the spans as JSON under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// scale shrinks the workload below its defined size (tests only).
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(specNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's arrivals are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the repetitions are measured, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench-spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	o.scale = 1
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one invocation and returns its result; the human-readable
// report goes to w as it is produced.
func execute(o options, w io.Writer) (result, error) {
	s, ok := specByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(specNames(), ", "))
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	s = s.scaled(o.scale)
	m := stampMachine()
	fmt.Fprintf(w, "# machine: %s\n", m)
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# workload %s, seed %d, %d session(s) x %.0f ms simulated, %s\n",
		s.name, o.seed, s.sessions, s.durationMS, mode)

	r := newRunner(s, o.seed)
	fmt.Fprintf(w, "# %d requests per repetition\n", r.in.total)
	var rpt report
	var err error
	if o.trace {
		rpt, err = r.traced(o, m)
	} else {
		rpt, err = r.untraced(o.seconds)
	}
	if err != nil {
		return result{}, err
	}
	for _, line := range rpt.notes {
		fmt.Fprintf(w, "# %s\n", line)
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# INCORRECT: %s\n", p)
	}
	for _, mt := range rpt.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", mt.name, mt.value, mt.unit)
		res.Metrics[mt.name] = metric{Value: mt.value, Unit: mt.unit}
	}
	fmt.Fprintf(w, "# ops: %d attempted, %d failed, correct=%v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// namedMetric is one reported figure, in report order.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// report is what one invocation measured.
type report struct {
	metrics []namedMetric
	notes   []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, namedMetric{name, value, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
