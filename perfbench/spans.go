package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer was created
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only the nil checks.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.now()
}

// write stores the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64, m machine) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Machine  machine `json:"machine"`
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Spans    []span  `json:"spans"`
	}{m, workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
