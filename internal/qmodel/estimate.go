package qmodel

import (
	"sync"
	"time"

	"raftlib/internal/stats"
	"raftlib/internal/trace"
)

// This file implements the online half of the package: where flow.go and
// mmc.go evaluate *given* rates, the Estimator produces those rates at
// run time from the instrumentation the runtime already pays for — the
// trace bus's sampled RunStart/RunEnd spans and the rings' push-side
// occupancy histograms and flow counters. It follows the instantaneous-
// rate model of Beard & Chamberlain, "Run Time Approximation of
// Non-blocking Service Rates for Streaming Systems" (arXiv:1504.00591):
// the non-blocking service rate µ of a kernel is approximated from
// short-interval observations of its service times, with observations
// contaminated by blocking (a span that sat on an empty input, an
// arrival window distorted by a descheduled producer) rejected as
// bursts rather than averaged in; arrival rates λ come from exact flow
// counter deltas over the same windows. The resulting λ̂/µ̂/ρ̂ stream is
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
	// ID is the kernel's trace actor id — spans on the bus carry it.
	ID int32
	// Runs returns the cumulative invocation count.
	Runs func() uint64
}

// LinkTap gives the estimator read access to one stream's counters
// (closures over ringbuffer.Telemetry's read hooks).
type LinkTap struct {
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
	// of arXiv:1504.00591 — instead of from blocking-inclusive wall time.
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
	// SvcNanos is the burst-rejected mean observed run duration from
	// sampled spans. Spans include any blocking the invocation suffered,
	// so this is a latency figure, not 1/µ̂.
	SvcNanos float64
	// MuRuns is the non-blocking invocation rate: runs per second of
	// non-blocked wall time when the kernel's links expose block
	// counters, else 1e9/SvcNanos (span fallback).
	MuRuns float64
	// MuElems is the non-blocking element service rate — MuRuns scaled
	// by the observed elements consumed per invocation (1 when the
	// kernel has no observed input flow).
	MuElems float64
	// Primed reports whether MuRuns is authoritative: the busy-time rate
	// EWMA has left its priming window (or, for kernels with no block
	// counters, the span EWMA has).
	Primed bool
}

// Estimator maintains per-kernel µ̂ and per-link λ̂/ρ̂ online. One
// goroutine (the monitor) drives Tick; readers (metrics scrapes, live
// stats, report building, the monitor's own decisions) take the mutex
// briefly per query.
type Estimator struct {
	spans *trace.Reader

	mu      sync.Mutex
	last    time.Time
	kernels []kernelEst
	kidx    map[int32]int
	links   []linkEst
}

type kernelEst struct {
	tap      KernelTap
	svcNs    *stats.BurstEWMA
	rate     *stats.BurstEWMA // non-blocking runs/s over busy time
	elems    *stats.BurstEWMA // elements consumed per invocation
	hasBlock bool             // any adjacent link exposes block counters
	prevRuns uint64
	dPops    uint64  // inbound pop delta accumulated this window
	blockNs  float64 // adjacent-link blocked time accumulated this window
}

type linkEst struct {
	tap      LinkTap
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

// NewEstimator builds an estimator over the given taps. spans may be nil
// (no µ̂; λ̂ and occupancy signals still work — the degraded mode used
// when tracing is disabled).
func NewEstimator(spans *trace.Reader, kernels []KernelTap, links []LinkTap) *Estimator {
	e := &Estimator{spans: spans, kidx: make(map[int32]int, len(kernels))}
	for _, kt := range kernels {
		e.kidx[kt.ID] = len(e.kernels)
		e.kernels = append(e.kernels, kernelEst{
			tap:   kt,
			svcNs: newEWMA(),
			rate:  newEWMA(),
			elems: newEWMA(),
		})
	}
	for _, lt := range links {
		e.links = append(e.links, linkEst{
			tap: lt,
			// Flow-counter deltas are exact, so λ̂ primes on the mean of its
			// first windows: the arrivals over their span, however unevenly
			// they fell into them (see stats.BurstEWMA.PrimeOnMean).
			lam: newEWMA().PrimeOnMean(),
		})
		if lt.Block != nil {
			if i, ok := e.kidx[lt.Src]; ok {
				e.kernels[i].hasBlock = true
			}
			if i, ok := e.kidx[lt.Dst]; ok {
				e.kernels[i].hasBlock = true
			}
		}
	}
	return e
}

// Tick folds one estimation window ending at now. Calls closer together
// than window are no-ops, so it is safe (and intended) to
// call from every monitor tick.
func (e *Estimator) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last.IsZero() {
		// First call establishes counter baselines; no rates yet.
		e.last = now
		for i := range e.links {
			l := &e.links[i]
			l.prevPush, l.prevPops = l.tap.Flow()
			l.prevOccN, l.prevOccW = l.tap.Occ()
			if l.tap.Block != nil {
				l.prevBlkW, l.prevBlkR = l.tap.Block()
			}
		}
		for i := range e.kernels {
			e.kernels[i].prevRuns = e.kernels[i].tap.Runs()
		}
		if e.spans != nil {
			e.spans.Poll(func(trace.Event) {}) // discard pre-baseline spans
		}
		return
	}
	dt := now.Sub(e.last)
	if dt < window {
		return
	}
	e.last = now
	secs := dt.Seconds()

	// Observed run durations from sampled spans. Span durations include
	// any blocking the invocation suffered; the burst filter keeps
	// episodic blocked outliers out, but a *chronically* starved kernel's
	// spans all carry the wait, which is why spans alone cannot yield µ̂
	// (they converge to the arrival rate, ρ̂→1, under light load). The
	// busy-time rate below is the de-contaminated estimate.
	if e.spans != nil {
		e.spans.PollSpans(func(s trace.Span) {
			if i, ok := e.kidx[s.Actor]; ok {
				e.kernels[i].svcNs.Observe(float64(s.End - s.Start))
			}
		})
	}

	// λ̂ and occupancy per link; inbound pop deltas and adjacent blocked
	// time accumulate per kernel.
	for i := range e.kernels {
		e.kernels[i].dPops = 0
		e.kernels[i].blockNs = 0
	}
	for i := range e.links {
		l := &e.links[i]
		push, pops := l.tap.Flow()
		dPush := push - l.prevPush
		dPops := pops - l.prevPops
		l.prevPush, l.prevPops = push, pops
		l.lam.Observe(float64(dPush) / secs)
		if ki, ok := e.kidx[l.tap.Dst]; ok {
			e.kernels[ki].dPops += dPops
		}
		if l.tap.Block != nil {
			blkW, blkR := l.tap.Block()
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
		occN, occW := l.tap.Occ()
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
	kr := KernelRate{SvcNanos: k.svcNs.Value()}
	switch {
	case k.rate.Primed():
		kr.MuRuns = k.rate.Value()
		kr.Primed = true
	case !k.hasBlock && k.svcNs.Primed() && kr.SvcNanos > 0:
		// No block counters to correct with: fall back to the span-based
		// rate, which is only trustworthy when blocking cannot be the
		// dominant term (hence authoritative only without block taps).
		kr.MuRuns = 1e9 / kr.SvcNanos
		kr.Primed = true
	}
	if kr.MuRuns > 0 {
		per := 1.0
		if k.elems.Primed() && k.elems.Value() > 0 {
			per = k.elems.Value()
		}
		kr.MuElems = kr.MuRuns * per
	}
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

// Link returns the current estimates for link i (the index order of the
// taps passed to NewEstimator, which raft keeps aligned with its link
// list).
func (e *Estimator) Link(i int) (LinkRates, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.links) {
		return LinkRates{}, false
	}
	l := &e.links[i]
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
