package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the repo modules the serving path crosses, in report order,
// and the poly/internal packages each owns. Samples are charged to the
// innermost frame of one of these packages.
var layers = []struct {
	name string
	pkgs []string
}{
	{"core", []string{"core", "opencl", "analysis", "cdfg", "opt", "dse", "model", "pattern", "apps", "exec", "parallel"}},
	{"runtime", []string{"runtime", "cluster"}},
	{"sched", []string{"sched"}},
	{"device", []string{"device"}},
	{"sim", []string{"sim"}},
	{"fleet", []string{"fleet"}},
	{"telemetry", []string{"telemetry"}},
}

const (
	layerGo    = "go"    // no poly frame: GC, allocation, scheduling
	layerBench = "bench" // only this benchmark's own frames
	layerOther = "other" // a poly/internal package outside every layer
)

// attribution is CPU time per layer from one or more profiles.
type attribution struct {
	ns map[string]int64
	// plancacheNS is the part of sched charged to frames in plancache.go.
	plancacheNS int64
	// backgroundNS is the part of go with no frame of this process's own
	// code at all: GC workers and other runtime goroutines.
	backgroundNS int64
	totalNS      int64
}

func newAttribution() *attribution { return &attribution{ns: map[string]int64{}} }

// share is layer's fraction of all sampled CPU time.
func (a *attribution) share(layer string) float64 {
	if a.totalNS == 0 {
		return 0
	}
	return float64(a.ns[layer]) / float64(a.totalNS)
}

// covered is the fraction charged to a named layer or to go.
func (a *attribution) covered() float64 {
	if a.totalNS == 0 {
		return 0
	}
	return 1 - float64(a.ns[layerBench]+a.ns[layerOther])/float64(a.totalNS)
}

// summary lists every bucket's share, largest first.
func (a *attribution) summary() string {
	names := make([]string, 0, len(a.ns))
	for n := range a.ns {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return a.ns[names[i]] > a.ns[names[j]] })
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1f%%", n, 100*a.share(n))
	}
	return strings.Join(parts, ", ")
}

// frame is one function in a stack, innermost first.
type frame struct{ fn, file string }

// layerOfFrame maps a poly/internal frame to its layer ("" otherwise).
func layerOfFrame(fn string) string {
	rest, ok := strings.CutPrefix(fn, "poly/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range layers {
		for _, p := range l.pkgs {
			if p == pkg {
				return l.name
			}
		}
	}
	return layerOther
}

// charge attributes one sample's CPU time by its stack.
func (a *attribution) charge(stack []frame, ns int64) {
	a.totalNS += ns
	own := false
	for _, f := range stack {
		if l := layerOfFrame(f.fn); l != "" {
			a.ns[l] += ns
			if l == "sched" && strings.HasSuffix(f.file, "/plancache.go") {
				a.plancacheNS += ns
			}
			return
		}
		own = own || strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "poly/")
	}
	if own {
		a.ns[layerBench] += ns
		return
	}
	a.ns[layerGo] += ns
	a.backgroundNS += ns
}

// addProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and charges every sample. The decoder reads only the
// profile.proto fields attribution needs.
func (a *attribution) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	// The CPU profile's sample types are [samples/count, cpu/nanoseconds].
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return errors.New("profile: sample without a cpu value")
		}
		var stack []frame
		for _, id := range s.locations {
			for _, fid := range p.locLines[id] {
				fn := p.funcs[fid]
				stack = append(stack, frame{fn: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		a.charge(stack, s.values[1])
	}
	return nil
}

type pbSample struct {
	locations []uint64
	values    []int64
}

type pbFunc struct{ name, file uint64 }

type pbProfile struct {
	samples []pbSample
	// locLines is each location's function ids, innermost inlined
	// function first, as profile.proto orders a location's lines.
	locLines map[uint64][]uint64
	funcs    map[uint64]pbFunc
	strs     []string
}

func (p *pbProfile) str(i uint64) string {
	if i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
	fFunctionFile    = 4
)

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locLines: map[uint64][]uint64{}, funcs: map[uint64]pbFunc{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case fProfileSample:
			var s pbSample
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					return appendUints(&s.locations, v, sub)
				case fSampleValue:
					var us []uint64
					if err := appendUints(&us, v, sub); err != nil {
						return err
					}
					for _, u := range us {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var fn pbFunc
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					fn.name = v
				case fFunctionFile:
					fn.file = v
				}
				return nil
			})
			p.funcs[id] = fn
			return err
		case fProfileString:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// appendUints reads a repeated integer field in either encoding: one
// varint per field, or packed into a length-delimited field.
func appendUints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, u)
		packed = packed[n:]
	}
	return nil
}

// eachField walks a protobuf message. Varint fields arrive as v with a
// nil sub; length-delimited fields as a non-nil sub (possibly empty).
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
