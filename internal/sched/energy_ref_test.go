package sched

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"poly/internal/device"
	"poly/internal/model"
)

// This file keeps the full-rerank cold planner as a test-only reference:
// Step 1 placement, latency repair and the Step-2 energy optimizer exactly
// as they were before Step 2 became incremental. Devices are located and
// compared by name, every energy round re-ranks every kernel × device ×
// candidate from scratch, ties break on strings.Compare, and every trial
// resimulates the whole DAG. TestEnergyStepMatchesReference requires the
// production planner to reproduce its plans bit for bit.

// refScheduleCold plans one request with the reference planner. It shares
// only the helpers the incremental rewrite left untouched (residency
// resolution, tally, buildPlan) and keeps its own slabs.
func (s *Scheduler) refScheduleCold(devices []DeviceState, boundMS float64) (*Plan, error) {
	if boundMS <= 0 {
		boundMS = s.prog.LatencyBoundMS
	}
	s.resolveLoaded(devices)
	base := append([]DeviceState(nil), devices...)
	s.attachLoaded(base)
	work := append([]DeviceState(nil), base...)

	var cur, trial, best planState
	cur.reset(len(s.knames))
	for _, ki := range s.orderIdx {
		if !s.refFindPlacement(ki, work, cur.slab, false, &cur.slab[ki]) &&
			!s.refFindPlacement(ki, work, cur.slab, true, &cur.slab[ki]) {
			return nil, fmt.Errorf("sched: kernel %q has no implementation on any available device", s.knames[ki])
		}
		refCommit(&cur.slab[ki], work)
	}
	s.tally(&cur)
	s.refRepairLatency(&cur, &trial, &best, base, boundMS)
	swaps := s.refOptimizeEnergy(&cur, &trial, base, boundMS)
	return s.buildPlan(&cur, boundMS, swaps), nil
}

type refSwapCandidate struct {
	impl   *model.Impl
	device string
}

type refRankedSwap struct {
	ki     int32
	kernel string
	we     float64
	refSwapCandidate
}

func (s *Scheduler) refFindPlacement(ki int32, devices []DeviceState, slab []Assignment, allowEvict bool, out *Assignment) bool {
	kernel := s.knames[ki]
	var (
		found                bool
		bestScore            = math.Inf(1)
		bestImpl             *model.Impl
		bestDev              string
		bestEst, bestEnd     float64
		bestExec, bestCommit float64
	)
	for di := range devices {
		d := &devices[di]
		impls := s.candidatesIdx(ki, d.Class)
		if len(impls) == 0 {
			continue
		}
		var candBuf [1]*model.Impl
		cands := impls[:1]
		if d.Class == device.GPU {
			cands = s.gpuCandsIdx[ki]
		}
		if res := d.resident(kernel); res != nil {
			candBuf[0] = res
			cands = candBuf[:1]
		} else if !allowEvict && d.holdsOtherKernel(kernel) {
			continue
		}
		ready := s.refEstMS(ki, d, slab)
		for _, im := range cands {
			est := ready
			if avail := d.availableAt(ImplID(im)); avail > est {
				est = avail
			}
			end := est + d.groupExecMS(im, s.batchN)
			commitWeight := 1.0
			if s.tpMode {
				commitWeight = 2
			}
			commit := d.commitMS(im, batchCap(im))
			score := end + commitWeight*commit
			if d.holdsOtherKernel(kernel) {
				score += d.ReconfigMS
			}
			if !found || score < bestScore {
				found = true
				bestScore = score
				bestImpl, bestDev = im, d.Name
				bestEst, bestEnd = est, end
				bestExec, bestCommit = im.LatencyMS/d.freq(), commit
			}
		}
	}
	if !found {
		return false
	}
	*out = Assignment{Kernel: kernel, Impl: bestImpl, Device: bestDev,
		StartMS: bestEst, EndMS: bestEnd, ExecMS: bestExec, CommitMS: bestCommit}
	return true
}

func (s *Scheduler) refEstMS(ki int32, d *DeviceState, slab []Assignment) float64 {
	est := 0.0
	for _, e := range s.predsIdx[ki] {
		pa := &slab[e.from]
		if pa.Impl == nil {
			continue
		}
		ready := pa.EndMS
		if pa.Device != d.Name {
			ready += e.transferMS
		}
		if ready > est {
			est = ready
		}
	}
	return est
}

func refCommit(a *Assignment, devices []DeviceState) {
	for di := range devices {
		d := &devices[di]
		if d.Name != a.Device {
			continue
		}
		free := a.StartMS + a.CommitMS
		if free > d.FreeAtMS {
			d.FreeAtMS = free
		}
		if a.EndMS > d.lastEndMS {
			d.lastEndMS = a.EndMS
		}
		d.LoadedImpl = ImplID(a.Impl)
		d.loaded = a.Impl
		return
	}
}

func (s *Scheduler) refRepairLatency(cur, trial, best *planState, base []DeviceState, boundMS float64) {
	for round := 0; round < 16 && cur.makespanMS > boundMS; round++ {
		bestFound := false
		bestScore := math.Inf(1)
		for _, ki := range s.orderIdx {
			a := &cur.slab[ki]
			if a.Impl == nil {
				continue
			}
			kernel := s.knames[ki]
			for di := range base {
				d := &base[di]
				all := s.candidatesIdx(ki, d.Class)
				if len(all) == 0 {
					continue
				}
				var candBuf [1]*model.Impl
				cands := all[:1]
				if d.Class == device.GPU {
					cands = s.gpuCandsIdx[ki]
				}
				if res := d.resident(kernel); res != nil {
					candBuf[0] = res
					cands = candBuf[:1]
				} else if d.holdsOtherKernel(kernel) {
					continue
				}
				for _, im := range cands {
					if im == a.Impl && d.Name == a.Device {
						continue
					}
					if !s.refResimulate(cur, trial, base, ki, refSwapCandidate{impl: im, device: d.Name}) {
						continue
					}
					score := trial.makespanMS + d.commitMS(im, batchCap(im))
					if !bestFound || score < bestScore {
						bestFound = true
						bestScore = score
						best.copyFrom(trial)
					}
				}
			}
		}
		if !bestFound || best.makespanMS >= cur.makespanMS {
			return
		}
		cur.copyFrom(best)
	}
}

func (s *Scheduler) refOptimizeEnergy(cur, trial *planState, base []DeviceState, boundMS float64) int {
	if boundMS-cur.makespanMS <= 0 || s.tpMode {
		return 0
	}
	swaps := 0
	for round := 0; round < 64; round++ {
		ranked := s.refRankedSwaps(cur, base, boundMS)
		accepted := false
		effBound := boundMS * s.slack
		if effBound < cur.makespanMS {
			effBound = cur.makespanMS
		}
		for _, sw := range ranked {
			if !s.refResimulate(cur, trial, base, sw.ki, sw.refSwapCandidate) ||
				trial.makespanMS > effBound || trial.energyMJ >= cur.energyMJ {
				continue
			}
			cur.copyFrom(trial)
			swaps++
			accepted = true
			break
		}
		if !accepted {
			return swaps
		}
	}
	return swaps
}

func (s *Scheduler) refRankedSwaps(st *planState, devices []DeviceState, boundMS float64) []refRankedSwap {
	var out []refRankedSwap
	for _, ki := range s.orderIdx {
		a := &st.slab[ki]
		if a.Impl == nil {
			continue
		}
		kernel := s.knames[ki]
		cur := a.Impl
		curT := a.ExecMS
		for di := range devices {
			d := &devices[di]
			if d.FreeAtMS > 0.2*boundMS {
				continue
			}
			var candBuf [1]*model.Impl
			cands := s.candidatesIdx(ki, d.Class)
			if res := d.resident(kernel); res != nil {
				candBuf[0] = res
				cands = candBuf[:1]
			} else if d.holdsOtherKernel(kernel) {
				continue
			}
			var best refRankedSwap
			found := false
			for _, im := range cands {
				if im == cur {
					continue
				}
				newT := im.LatencyMS / d.freq()
				curE := s.perRequestEnergyMJ(cur, curT)
				newE := s.perRequestEnergyMJ(im, newT)
				if curE-newE <= 0 {
					continue
				}
				we := (cur.PowerW - im.PowerW) * (newT - curT)
				if !found || we > best.we {
					found = true
					best = refRankedSwap{ki: ki, kernel: kernel, we: we,
						refSwapCandidate: refSwapCandidate{impl: im, device: d.Name}}
				}
			}
			if found {
				out = append(out, best)
			}
		}
	}
	slices.SortFunc(out, func(a, b refRankedSwap) int {
		if a.we != b.we {
			if a.we > b.we {
				return -1
			}
			return 1
		}
		if a.kernel != b.kernel {
			return strings.Compare(a.kernel, b.kernel)
		}
		return strings.Compare(a.device, b.device)
	})
	return out
}

func (s *Scheduler) refResimulate(src, dst *planState, base []DeviceState, pinKi int32, cand refSwapCandidate) bool {
	devs := append([]DeviceState(nil), base...)
	dst.reset(len(s.knames))
	for _, ki := range s.orderIdx {
		im, devName := src.slab[ki].Impl, src.slab[ki].Device
		if ki == pinKi {
			im, devName = cand.impl, cand.device
		}
		if im == nil {
			continue
		}
		var dev *DeviceState
		for di := range devs {
			if devs[di].Name == devName {
				dev = &devs[di]
				break
			}
		}
		if dev == nil {
			return false
		}
		est := s.refEstMS(ki, dev, dst.slab)
		if avail := dev.availableAt(ImplID(im)); avail > est {
			est = avail
		}
		dst.slab[ki] = Assignment{Kernel: s.knames[ki], Impl: im, Device: devName,
			StartMS: est, EndMS: est + dev.groupExecMS(im, s.batchN),
			ExecMS:   im.LatencyMS / dev.freq(),
			CommitMS: dev.commitMS(im, batchCap(im))}
		refCommit(&dst.slab[ki], devs)
	}
	s.tally(dst)
	return true
}
