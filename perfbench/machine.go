package main

import (
	"bufio"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"

	"poly/internal/parallel"
)

// machine is the shape every reported figure was measured on.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d workers=%d go=%s cpu=%q",
		m.NProc, m.GOMAXPROCS, m.Workers, m.GoVersion, m.CPU)
}

// stampMachine caps GOMAXPROCS and the DSE/fleet worker pool at the
// CPUs this process may run on, then reports the machine shape.
func stampMachine() machine {
	n := goruntime.NumCPU()
	if goruntime.GOMAXPROCS(0) > n {
		goruntime.GOMAXPROCS(n)
	}
	if parallel.Workers() > n {
		parallel.SetWorkers(n)
	}
	return machine{
		NProc:      n,
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Workers:    parallel.Workers(),
		GoVersion:  goruntime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo (Linux), or
// falls back to the architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return goruntime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return goruntime.GOARCH
}
