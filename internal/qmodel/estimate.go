package qmodel

import (
	"slices"
	"sync"
	"time"

	"raftlib/internal/stats"
)

// This file implements the online half of the package: where flow.go and
// mmc.go evaluate *given* rates, the Estimator produces those rates at
// run time from counters the runtime already keeps — each kernel's
// invocation count and each ring's flow counters, blocked times and
// push-side occupancy histogram. It follows the instantaneous-rate model
// of Beard & Chamberlain, "Run Time Approximation of Non-blocking Service
// Rates for Streaming Systems" (arXiv:1504.00591): the non-blocking
// service rate µ of a kernel is approximated over short intervals as its
// invocations per second of time it was not blocked on a stream, with
// observations distorted by blocking or descheduling rejected as bursts
// rather than averaged in; arrival rates λ come from exact flow counter
// deltas over the same windows.
//
// The estimator is built empty. Every transaction of the graph, epoch 0
// included, hands it the taps of what it added (Add), and a link's tap is
// dropped with the link (RemoveLinks). The resulting λ̂/µ̂/ρ̂ stream is
// what turns the monitor's reactive contended-window heuristics into a
// model-driven controller: M/M/c waiting-time predictions pick replica
// widths, and utilization plus the occupancy derivative start batch
// growth before a queue ever saturates.

// KernelTap gives the estimator read access to one kernel's cumulative
// counters without importing the engine packages (raft builds the
// closures over core.Actor).
type KernelTap struct {
	// Name labels the kernel in diagnostics.
	Name string
	// ID is the kernel's actor id, which link taps name as Src and Dst.
	ID int32
	// Runs returns the cumulative invocation count.
	Runs func() uint64
}

// LinkTap gives the estimator read access to one stream's counters
// (closures over ringbuffer.Telemetry's read hooks).
type LinkTap struct {
	// ID is the link's ID (core.LinkInfo.ID), by which its estimates are
	// read; the engine's link IDs are dense.
	ID int
	// Name labels the link in diagnostics.
	Name string
	// Src is the trace actor id of the producing kernel (-1 external).
	Src int32
	// Dst is the trace actor id of the consuming kernel (-1 external).
	Dst int32
	// Flow returns cumulative pushes and pops (Telemetry.Flow).
	Flow func() (pushes, pops uint64)
	// Block returns cumulative producer and consumer blocked time in
	// nanoseconds (Telemetry.BlockNs); may be nil. Window deltas are what
	// let µ̂ be computed over busy time only — the de-contamination step
	// of arXiv:1504.00591 — instead of from blocking-inclusive wall time;
	// a kernel with no adjacent Block tap gets no µ̂.
	Block func() (writeNs, readNs uint64)
	// Occ returns the occupancy histogram reduced to count and weighted
	// sum (Telemetry.OccStats); deltas yield mean occupancy-at-push.
	Occ func() (count uint64, weighted float64)
	// Len returns the instantaneous queue length (fallback occupancy
	// signal for windows with no pushes).
	Len func() int
	// Cap returns the current queue capacity.
	Cap func() int
}

// The estimator's constants.
const (
	// window is the minimum interval between estimate folds; Tick calls
	// closer together than this are no-ops, so the monitor can call Tick
	// every δ without re-deriving rates at δ granularity. 2ms is long
	// enough that flow deltas carry real counts on fast pipelines and
	// short enough to track a ramp within tens of milliseconds.
	window = 2 * time.Millisecond
	// alpha is the EWMA smoothing factor; a sample above burstFactor times
	// the running estimate is rejected, unless burstStreak samples in a
	// row were (the escape hatch).
	alpha       = 0.3
	burstFactor = 4
	burstStreak = 8
)

// newEWMA is one rate or duration filter under the estimator's constants.
func newEWMA() *stats.BurstEWMA { return stats.NewBurstEWMA(alpha, burstFactor, burstStreak) }

// LinkRates is one link's current estimates. Rates are elements/second.
type LinkRates struct {
	// Lambda is the arrival-rate estimate λ̂ (pushes/s).
	Lambda float64
	// Mu is the consumer's non-blocking drain-rate estimate µ̂
	// (elements/s); 0 when the consumer is external or unprimed.
	Mu float64
	// Rho is the utilization estimate λ̂/µ̂ (0 when µ̂ unknown).
	Rho float64
	// OccMean is the smoothed mean occupancy (elements).
	OccMean float64
	// OccSlope is the smoothed occupancy derivative (elements/s); a
	// sustained positive slope is the pre-saturation ramp signal.
	OccSlope float64
	// Primed reports whether λ̂ has left its priming window.
	Primed bool
}

// KernelRate is one kernel's current estimates.
type KernelRate struct {
	// MuRuns is the non-blocking invocation rate: runs per second of
	// wall time the kernel's links did not count as blocked.
	MuRuns float64
	// MuElems is the non-blocking element service rate — MuRuns scaled
	// by the observed elements consumed per invocation (1 when the
	// kernel has no observed input flow).
	MuElems float64
	// Primed reports whether MuRuns is authoritative: the busy-time rate
	// EWMA has left its priming window.
	Primed bool
}

// Estimator maintains per-kernel µ̂ and per-link λ̂/ρ̂ online. One
// goroutine (the monitor) drives Tick; readers (metrics scrapes, live
// stats, report building, the monitor's own decisions) take the mutex
// briefly per query.
type Estimator struct {
	mu      sync.Mutex
	last    time.Time
	kernels []kernelEst
	kidx    map[int32]int
	// links is indexed by link ID: nil for an ID not (or no longer) tapped.
	links []*linkEst
}

type kernelEst struct {
	tap      KernelTap
	rate     *stats.BurstEWMA // non-blocking runs/s over busy time
	elems    *stats.BurstEWMA // elements consumed per invocation
	hasBlock bool             // any adjacent link exposes block counters
	// based is set once a fold has read the counter baseline; a tap added
	// since the last fold observes nothing in the next one.
	based    bool
	prevRuns uint64
	dPops    uint64  // inbound pop delta accumulated this window
	blockNs  float64 // adjacent-link blocked time accumulated this window
}

type linkEst struct {
	tap      LinkTap
	based    bool
	lam      *stats.BurstEWMA // arrivals/s
	prevPush uint64
	prevPops uint64
	prevBlkW uint64
	prevBlkR uint64
	prevOccN uint64
	prevOccW float64
	occMean  float64
	occPrev  float64
	occSlope float64
	occInit  bool
}

// NewEstimator returns an estimator with no taps.
func NewEstimator() *Estimator { return &Estimator{kidx: map[int32]int{}} }

// Add taps one transaction's kernels and links; the links' states are one
// slab. A tap's first fold reads its counters' baseline and observes
// nothing.
func (e *Estimator) Add(kernels []KernelTap, links []LinkTap) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, kt := range kernels {
		e.kidx[kt.ID] = len(e.kernels)
		e.kernels = append(e.kernels, kernelEst{tap: kt, rate: newEWMA(), elems: newEWMA()})
	}
	slab := make([]linkEst, len(links))
	top := len(e.links)
	for _, lt := range links {
		top = max(top, lt.ID+1)
	}
	e.links = slices.Grow(e.links, top-len(e.links))[:top]
	for i, lt := range links {
		// Flow-counter deltas are exact, so λ̂ primes on the mean of its
		// first windows: the arrivals over their span, however unevenly
		// they fell into them (see stats.BurstEWMA.PrimeOnMean).
		slab[i] = linkEst{tap: lt, lam: newEWMA().PrimeOnMean()}
		e.links[lt.ID] = &slab[i]
		if lt.Block != nil {
			if ki, ok := e.kidx[lt.Src]; ok {
				e.kernels[ki].hasBlock = true
			}
			if ki, ok := e.kidx[lt.Dst]; ok {
				e.kernels[ki].hasBlock = true
			}
		}
	}
}

// RemoveLinks drops the taps of the links with the given IDs.
func (e *Estimator) RemoveLinks(ids []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range ids {
		if id >= 0 && id < len(e.links) {
			e.links[id] = nil
		}
	}
}

// Tick folds one estimation window ending at now. Calls closer together
// than window are no-ops, so it is safe (and intended) to
// call from every monitor tick. The first call only reads baselines.
func (e *Estimator) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	dt := now.Sub(e.last)
	if dt < window {
		return
	}
	e.last = now
	secs := dt.Seconds()

	// λ̂ and occupancy per link; inbound pop deltas and adjacent blocked
	// time accumulate per kernel.
	for i := range e.kernels {
		e.kernels[i].dPops = 0
		e.kernels[i].blockNs = 0
	}
	for _, l := range e.links {
		if l == nil {
			continue
		}
		push, pops := l.tap.Flow()
		occN, occW := l.tap.Occ()
		var blkW, blkR uint64
		if l.tap.Block != nil {
			blkW, blkR = l.tap.Block()
		}
		if !l.based {
			l.based = true
			l.prevPush, l.prevPops = push, pops
			l.prevOccN, l.prevOccW = occN, occW
			l.prevBlkW, l.prevBlkR = blkW, blkR
			continue
		}
		dPush := push - l.prevPush
		dPops := pops - l.prevPops
		l.prevPush, l.prevPops = push, pops
		l.lam.Observe(float64(dPush) / secs)
		if ki, ok := e.kidx[l.tap.Dst]; ok {
			e.kernels[ki].dPops += dPops
		}
		if l.tap.Block != nil {
			dW, dR := blkW-l.prevBlkW, blkR-l.prevBlkR
			l.prevBlkW, l.prevBlkR = blkW, blkR
			// A kernel's goroutine waits serially: write blocks on its
			// out-links and read blocks on its in-links both subtract
			// from the wall time it had available to do work.
			if ki, ok := e.kidx[l.tap.Src]; ok {
				e.kernels[ki].blockNs += float64(dW)
			}
			if ki, ok := e.kidx[l.tap.Dst]; ok {
				e.kernels[ki].blockNs += float64(dR)
			}
		}

		// Window mean occupancy: histogram delta when the window saw
		// pushes, instantaneous length otherwise (an idle link's
		// occupancy is whatever is sitting in it).
		var winMean float64
		if dN := occN - l.prevOccN; dN > 0 {
			winMean = (occW - l.prevOccW) / float64(dN)
		} else {
			winMean = float64(l.tap.Len())
		}
		l.prevOccN, l.prevOccW = occN, occW
		if !l.occInit {
			l.occMean, l.occPrev, l.occInit = winMean, winMean, true
			continue
		}
		slope := (winMean - l.occPrev) / secs
		l.occPrev = winMean
		l.occMean = alpha*winMean + (1-alpha)*l.occMean
		l.occSlope = alpha*slope + (1-alpha)*l.occSlope
	}

	// Per-kernel folds from the accumulated link evidence: elements per
	// invocation from inbound flow, and the non-blocking invocation rate
	// µ̂ = runs per second of *busy* wall time. Windows the kernel spent
	// (almost) entirely blocked yield no observation — they carry no
	// information about how fast it could run (the paper's discarded
	// non-converged intervals); the burst filter absorbs the rest of the
	// timing skew between the clock and the counters.
	for i := range e.kernels {
		k := &e.kernels[i]
		runs := k.tap.Runs()
		dRuns := runs - k.prevRuns
		k.prevRuns = runs
		if !k.based {
			k.based = true
			continue
		}
		if dRuns > 0 && k.dPops > 0 {
			k.elems.Observe(float64(k.dPops) / float64(dRuns))
		}
		if k.hasBlock && dRuns > 0 {
			busy := secs - k.blockNs/1e9
			if busy > 0.01*secs {
				k.rate.Observe(float64(dRuns) / busy)
			}
		}
	}
}

// kernelRateLocked derives a KernelRate; callers hold e.mu.
func (e *Estimator) kernelRateLocked(i int) KernelRate {
	k := &e.kernels[i]
	if !k.rate.Primed() {
		return KernelRate{}
	}
	kr := KernelRate{MuRuns: k.rate.Value(), Primed: true}
	per := 1.0
	if k.elems.Primed() && k.elems.Value() > 0 {
		per = k.elems.Value()
	}
	kr.MuElems = kr.MuRuns * per
	return kr
}

// Kernel returns the current estimates for the kernel with the given
// trace actor id.
func (e *Estimator) Kernel(id int32) (KernelRate, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.kidx[id]
	if !ok {
		return KernelRate{}, false
	}
	return e.kernelRateLocked(i), true
}

// Link returns the current estimates for the link with the given ID, and
// false when no tap of it is in place.
func (e *Estimator) Link(id int) (LinkRates, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.links) || e.links[id] == nil {
		return LinkRates{}, false
	}
	l := e.links[id]
	lr := LinkRates{
		Lambda:   l.lam.Value(),
		OccMean:  l.occMean,
		OccSlope: l.occSlope,
		Primed:   l.lam.Primed(),
	}
	if ki, ok := e.kidx[l.tap.Dst]; ok {
		if kr := e.kernelRateLocked(ki); kr.Primed && kr.MuElems > 0 {
			lr.Mu = kr.MuElems
			lr.Rho = lr.Lambda / lr.Mu
		}
	}
	return lr, true
}

// GroupMu returns the mean non-blocking per-replica service rate
// (elements/s) across the given kernel ids, considering only primed
// members; ok is false until at least one member is primed.
func (e *Estimator) GroupMu(ids []int32) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sum float64
	var n int
	for _, id := range ids {
		if i, ok := e.kidx[id]; ok {
			if kr := e.kernelRateLocked(i); kr.Primed && kr.MuElems > 0 {
				sum += kr.MuElems
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
