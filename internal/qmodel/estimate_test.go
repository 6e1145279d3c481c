package qmodel

import (
	"testing"
	"time"
)

// synthLink is a synthetic tap pair: cumulative counters the test advances
// by hand between Tick calls, emulating a link and its consumer kernel.
type synthLink struct {
	id                 int // the link's ID
	runs, pushes, pops uint64
	blkW, blkR         uint64
	occN               uint64
	occW               float64
	qlen, qcap         int
}

func (s *synthLink) taps(src, dst int32) ([]KernelTap, []LinkTap) {
	kts := []KernelTap{{Name: "k", ID: dst, Runs: func() uint64 { return s.runs }}}
	lts := []LinkTap{{
		ID:    s.id,
		Name:  "l",
		Src:   src,
		Dst:   dst,
		Flow:  func() (uint64, uint64) { return s.pushes, s.pops },
		Block: func() (uint64, uint64) { return s.blkW, s.blkR },
		Occ:   func() (uint64, float64) { return s.occN, s.occW },
		Len:   func() int { return s.qlen },
		Cap:   func() int { return s.qcap },
	}}
	return kts, lts
}

const win = 2 * time.Millisecond

// drive advances the counters by n elements with the consumer blocked for
// blockedFrac of each window, then ticks, for `ticks` windows.
func drive(e *Estimator, s *synthLink, now *time.Time, ticks int, n uint64, blockedFrac float64) {
	for i := 0; i < ticks; i++ {
		s.pushes += n
		s.pops += n
		s.runs += n
		s.occN += n
		s.blkR += uint64(blockedFrac * float64(win.Nanoseconds()))
		*now = now.Add(win)
		e.Tick(*now)
	}
}

// A producer much faster than its consumer, on a ring that grows, puts a
// short run's whole output into the stream within the first two windows
// (element-wise pushes ride port windows at ~10 ns each) and the consumer
// drains the backlog for many windows more. λ̂ must prime on what arrived —
// not at zero because three of its five priming windows were empty — and
// then follow the arrivals down.
func TestEstimatorLambdaPrimesWhenArrivalsFillFewWindows(t *testing.T) {
	s := &synthLink{qcap: 1 << 15}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now) // baseline

	tick := func(pushed uint64) {
		s.pushes += pushed
		s.occN += pushed
		s.pops += 1000
		s.runs += 1000
		now = now.Add(win)
		e.Tick(now)
	}
	tick(10_000)
	tick(20_000)
	for i := 0; i < 3; i++ {
		tick(0)
	}
	lr, ok := e.Link(0)
	if !ok || !lr.Primed {
		t.Fatalf("link not primed after five windows: %+v ok=%v", lr, ok)
	}
	// 30k elements over the 10 ms priming span.
	if lr.Lambda < 2.9e6 || lr.Lambda > 3.1e6 {
		t.Fatalf("λ̂ = %v, want 3M/s (30k arrivals over 10 ms)", lr.Lambda)
	}
	for i := 0; i < 25; i++ {
		tick(0)
	}
	lr, _ = e.Link(0)
	if lr.Lambda <= 0 || lr.Lambda > 3e6*0.01 {
		t.Fatalf("λ̂ = %v after 25 empty windows, want decayed but non-zero", lr.Lambda)
	}
}

func TestEstimatorSteadyConvergence(t *testing.T) {
	s := &synthLink{qcap: 64}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now) // baseline

	// 1000 elements per 2ms window, consumer blocked half of each window:
	// λ = 500k/s arrivals against µ = 1M/s busy-time service rate.
	drive(e, s, &now, 10, 1000, 0.5)

	lr, ok := e.Link(0)
	if !ok || !lr.Primed {
		t.Fatalf("link not primed: %+v ok=%v", lr, ok)
	}
	if lr.Lambda < 490e3 || lr.Lambda > 510e3 {
		t.Fatalf("λ̂ = %v, want ~500k", lr.Lambda)
	}
	if lr.Mu < 0.98e6 || lr.Mu > 1.02e6 {
		t.Fatalf("µ̂ = %v, want ~1M", lr.Mu)
	}
	if lr.Rho < 0.48 || lr.Rho > 0.52 {
		t.Fatalf("ρ̂ = %v, want ~0.5", lr.Rho)
	}
	kr, ok := e.Kernel(1)
	if !ok || !kr.Primed {
		t.Fatalf("kernel not primed: %+v", kr)
	}
	if kr.MuElems < 0.98e6 || kr.MuElems > 1.02e6 {
		t.Fatalf("kernel µ̂ = %v, want ~1M", kr.MuElems)
	}
}

// TestEstimatorStarvedConsumerMu is the arXiv:1504.00591 case: a consumer
// idle 75% of the time because arrivals are slow. Its observed run rate is
// the arrival rate (ρ would read ~1); the busy-time estimate must recover
// the true 4×-faster non-blocking service rate so ρ̂ reads ~0.25.
func TestEstimatorStarvedConsumerMu(t *testing.T) {
	s := &synthLink{qcap: 64}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now)

	drive(e, s, &now, 10, 100, 0.75)

	lr, _ := e.Link(0)
	if lr.Rho < 0.23 || lr.Rho > 0.27 {
		t.Fatalf("ρ̂ = %v, want ~0.25 (blocking-corrected)", lr.Rho)
	}
	if lr.Mu < 0.9*200e3 || lr.Mu > 1.1*200e3 {
		t.Fatalf("µ̂ = %v, want ~200k busy-time rate", lr.Mu)
	}
}

func TestEstimatorBurstRejected(t *testing.T) {
	s := &synthLink{qcap: 64}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now)

	drive(e, s, &now, 10, 1000, 0.5)
	// One descheduled-producer catch-up window: 100× the arrivals at once.
	drive(e, s, &now, 1, 100_000, 0.5)

	lr, _ := e.Link(0)
	if lr.Lambda > 600e3 {
		t.Fatalf("λ̂ = %v after one burst window, want rejection near 500k", lr.Lambda)
	}
}

func TestEstimatorRampFollows(t *testing.T) {
	s := &synthLink{qcap: 64}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now)

	drive(e, s, &now, 6, 500, 0.5)
	// Arrivals ramp 20% per window — sustained growth, not a burst; the
	// estimate must track it within the smoothing lag.
	n := 500.0
	for i := 0; i < 20; i++ {
		n *= 1.2
		drive(e, s, &now, 1, uint64(n), 0.5)
	}
	lr, _ := e.Link(0)
	final := n / win.Seconds()
	if lr.Lambda < 0.4*final {
		t.Fatalf("λ̂ = %v lagging ramp to %v", lr.Lambda, final)
	}
}

func TestEstimatorFullyBlockedWindowYieldsNoRate(t *testing.T) {
	s := &synthLink{qcap: 64}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now)

	// The kernel technically ran but spent >99% of every window blocked:
	// such windows carry no information about its non-blocking rate and
	// must not prime the estimate.
	drive(e, s, &now, 10, 10, 0.999)

	if kr, _ := e.Kernel(1); kr.Primed {
		t.Fatalf("kernel primed from fully-blocked windows: %+v", kr)
	}
}

func TestEstimatorOccupancySlopeOnRamp(t *testing.T) {
	s := &synthLink{qcap: 1024}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now)

	// Mean occupancy-at-push climbs 20 elements per window.
	mean := 0.0
	for i := 0; i < 10; i++ {
		mean += 20
		s.pushes += 100
		s.pops += 100
		s.runs += 100
		s.occN += 100
		s.occW += 100 * mean
		now = now.Add(win)
		e.Tick(now)
	}
	lr, _ := e.Link(0)
	if lr.OccSlope <= 0 {
		t.Fatalf("occupancy slope = %v, want positive on a filling queue", lr.OccSlope)
	}
	if lr.OccMean < 50 {
		t.Fatalf("occupancy mean = %v, want climbing toward 200", lr.OccMean)
	}
}

func TestEstimatorTickRateLimited(t *testing.T) {
	s := &synthLink{qcap: 64}
	kts, lts := s.taps(0, 1)
	e := newEstimator(kts, lts)
	now := time.Now()
	e.Tick(now)
	drive(e, s, &now, 10, 1000, 0.5)
	before, _ := e.Link(0)

	// Sub-window ticks with wild counter movement must be no-ops.
	s.pushes += 1_000_000
	e.Tick(now.Add(100 * time.Microsecond))
	after, _ := e.Link(0)
	if after.Lambda != before.Lambda {
		t.Fatalf("λ̂ moved on a sub-window tick: %v -> %v", before.Lambda, after.Lambda)
	}
}

func TestEstimatorGroupMu(t *testing.T) {
	a := &synthLink{qcap: 64}
	b := &synthLink{id: 1, qcap: 64}
	kta, lta := a.taps(0, 1)
	ktb, ltb := b.taps(0, 2)
	e := newEstimator(append(kta, ktb...), append(lta, ltb...))
	now := time.Now()
	e.Tick(now)

	// Kernel 1 at µ=1M/s, kernel 2 at µ=500k/s (same flow, twice the
	// blocked share).
	for i := 0; i < 10; i++ {
		a.pushes += 1000
		a.pops += 1000
		a.runs += 1000
		a.occN += 1000
		a.blkR += uint64(0.5 * float64(win.Nanoseconds()))
		b.pushes += 500
		b.pops += 500
		b.runs += 500
		b.occN += 500
		b.blkR += uint64(0.5 * float64(win.Nanoseconds()))
		now = now.Add(win)
		e.Tick(now)
	}
	mu, ok := e.GroupMu([]int32{1, 2})
	if !ok {
		t.Fatal("group unprimed")
	}
	want := (1e6 + 500e3) / 2
	if mu < 0.95*want || mu > 1.05*want {
		t.Fatalf("group µ̂ = %v, want ~%v", mu, want)
	}
	if _, ok := e.GroupMu([]int32{99}); ok {
		t.Fatal("unknown ids reported primed")
	}
}

// newEstimator is an estimator one transaction handed kernels and links.
func newEstimator(kernels []KernelTap, links []LinkTap) *Estimator {
	e := NewEstimator()
	e.Add(kernels, links)
	return e
}

// TestEstimatorTapsJoinAndLeaveByID: a link tapped by a later transaction
// reads its baseline at the next fold and is estimated from the one after,
// under its own ID; a removed link's estimates are gone, the others stay.
func TestEstimatorTapsJoinAndLeaveByID(t *testing.T) {
	a := &synthLink{qcap: 64}
	kta, lta := a.taps(0, 1)
	e := newEstimator(kta, lta)
	now := time.Now()
	e.Tick(now)
	drive(e, a, &now, 3, 1000, 0.5)

	b := &synthLink{id: 5, qcap: 64, pushes: 1 << 20, pops: 1 << 20}
	ktb, ltb := b.taps(2, 3)
	e.Add(ktb, ltb)
	if _, ok := e.Link(4); ok {
		t.Fatal("an ID never tapped reads as tapped")
	}
	for i := 0; i < 10; i++ {
		b.pushes += 400
		b.pops += 400
		b.runs += 400
		b.occN += 400
		drive(e, a, &now, 1, 1000, 0.5)
	}
	lr, ok := e.Link(5)
	if !ok || !lr.Primed {
		t.Fatalf("added link: %+v, tapped %v; want primed", lr, ok)
	}
	if want := 400 / win.Seconds(); lr.Lambda < 0.95*want || lr.Lambda > 1.05*want {
		t.Fatalf("added link λ̂ = %v, want ~%v (its counters before the tap must not count)", lr.Lambda, want)
	}
	e.RemoveLinks([]int{0})
	if _, ok := e.Link(0); ok {
		t.Fatal("a removed link still has estimates")
	}
	drive(e, a, &now, 1, 1000, 0.5)
	if _, ok := e.Link(5); !ok {
		t.Fatal("removing one link dropped another")
	}
}
