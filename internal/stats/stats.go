// Package stats provides the low-overhead performance instrumentation used
// by the RaftLib runtime: atomic counters, exponentially weighted moving
// averages, log-scale histograms and occupancy samplers.
//
// The paper (§4.1) stresses that "the data collection process itself is
// optimized to reduce overhead" (citing the TimeTrial profiler work). The
// implementations here follow the same discipline: recording is a handful of
// uncontended atomic operations — one add for a Counter, three adds plus a
// load (and a CAS only on a new maximum) for a Histogram sample — and
// aggregation work happens only when a monitor thread asks for a snapshot.
// Where even that is too much per event, the caller samples: Histogram and
// ServiceTimer take weighted samples, so a kernel stepping every few tens of
// nanoseconds is counted on every step but timed on a bounded share of them
// (see core.Actor.StepTimed). The step count has one writer, so it is an
// owned.Counter: a load and a store, no locked instruction.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"raftlib/internal/owned"
)

// Counter is a monotonically increasing event counter safe for concurrent
// use. The zero value is ready to use.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Gauge is an instantaneous value that can move in both directions.
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// nBuckets is the number of power-of-two histogram buckets. Bucket i counts
// values v with 2^(i-1) <= v < 2^i (bucket 0 counts v == 0 and v == 1).
const nBuckets = 64

// Histogram is a log2-bucketed histogram of non-negative integer samples
// (durations in nanoseconds, queue occupancies, batch sizes...). Recording
// is three uncontended atomic adds (bucket, sum, count) and a load of the
// running maximum; percentile queries walk the 64 buckets. The zero value is
// ready to use.
type Histogram struct {
	buckets [nBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
	max     atomic.Uint64
}

func bucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(v) - 1
}

// RecordN adds a sample of value v that stands for n events: count, sum and
// v's bucket all advance by n, so means and quantiles weigh the sample as n
// identical ones. Samplers that observe one event in n record this way.
func (h *Histogram) RecordN(v, n uint64) { h.recordSum(v, n, v*n) }

// recordSum is RecordN with the n events' total given: they count in v's
// bucket, but add sum, not v·n, to the sum.
func (h *Histogram) recordSum(v, n, sum uint64) {
	h.buckets[bucketIndex(v)].Add(n)
	h.sum.Add(sum)
	h.count.Add(n)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded samples (the sum of their weights).
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the weighted sum of recorded sample values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the arithmetic mean of recorded samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1])
// using the bucket upper edges. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 1
			}
			if i == 63 {
				return math.MaxUint64
			}
			return (uint64(1) << uint(i+1)) - 1
		}
	}
	return h.max.Load()
}

// LogQuantile returns an upper-bound estimate of the q-quantile over raw
// log2 bucket counts laid out like Histogram's (bucket 0 holds {0,1},
// bucket i holds [2^i, 2^(i+1))). It is shared by every log2-bucketed
// counter set in the runtime — the per-ring occupancy buckets in
// internal/ringbuffer carry no methods of their own so the queue types
// stay dependency-free.
func LogQuantile(buckets []uint64, q float64) uint64 {
	var total uint64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 1
			}
			if i >= 63 {
				return math.MaxUint64
			}
			return (uint64(1) << uint(i+1)) - 1
		}
	}
	return 0
}

// Snapshot returns a point-in-time copy of the bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	s.Max = h.max.Load()
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state.
type HistogramSnapshot struct {
	Buckets [nBuckets]uint64
	Sum     uint64
	Count   uint64
	Max     uint64
}

// Quantile returns the q-quantile upper bound from the snapshot's buckets.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	return LogQuantile(s.Buckets[:], q)
}

// String renders the non-empty buckets, one per line.
func (s HistogramSnapshot) String() string {
	var b strings.Builder
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = uint64(1) << uint(i)
		}
		fmt.Fprintf(&b, "[%d..): %d\n", lo, n)
	}
	return b.String()
}

// Occupancy tracks queue occupancy over time. The monitor thread calls
// Sample with the instantaneous length; consumers read the running mean
// and the fractions of samples near capacity and empty (used for
// bottleneck detection). It is four words and holds no pointer: the
// per-commit log2 distribution of a stream is its ring's own
// (ringbuffer.Telemetry), so the sampler keeps only what the mean and the
// fractions need. Sample has one writer, the monitor's tick, so the counts
// are owned.Counters (a load and a store each, no locked instruction);
// they may be read from any goroutine.
type Occupancy struct {
	sum       owned.Counter
	samples   owned.Counter
	fullCount owned.Counter // samples where len >= hi-water fraction of cap
	zeroCount owned.Counter // samples where len == 0 (starvation)
}

// Sample records one observation of a queue with length n and capacity c.
// Only one goroutine may call it.
func (o *Occupancy) Sample(n, c int) {
	if n < 0 {
		n = 0
	}
	o.sum.Add(uint64(n))
	o.samples.Add(1)
	if c > 0 && n >= c-(c>>3) { // within 12.5% of full
		o.fullCount.Add(1)
	}
	if n == 0 {
		o.zeroCount.Add(1)
	}
}

// Mean returns the mean observed occupancy.
func (o *Occupancy) Mean() float64 { return o.perSample(&o.sum) }

// FullFraction returns the fraction of samples observed near capacity.
func (o *Occupancy) FullFraction() float64 { return o.perSample(&o.fullCount) }

// StarvedFraction returns the fraction of samples observed empty.
func (o *Occupancy) StarvedFraction() float64 { return o.perSample(&o.zeroCount) }

// perSample is a counter divided by the samples, 0 before the first.
func (o *Occupancy) perSample(c *owned.Counter) float64 {
	s := o.samples.Load()
	if s == 0 {
		return 0
	}
	return float64(c.Load()) / float64(s)
}

// ServiceTimer counts a kernel's invocations exactly and keeps a log-scale
// histogram of their service times from weighted samples: every invocation
// calls Step (one store, no clock), and the invocations that were actually
// timed call Observe with the number of invocations the measurement stands
// for. Count is therefore exact; the mean, the quantiles, BusyNanos and
// RatePerSecond are estimates that are exact when every invocation is
// observed with weight one (Record). Step and Record have one writer, the
// goroutine running the kernel; Count, like the estimates, may be read from
// any goroutine.
type ServiceTimer struct {
	runs owned.Counter // written by the goroutine running the kernel
	hist Histogram
}

// Time runs fn and records its wall-clock duration.
func (t *ServiceTimer) Time(fn func()) {
	start := time.Now()
	fn()
	t.Record(time.Since(start))
}

// Step counts one invocation without timing it. Only the goroutine running
// the kernel may call it.
func (t *ServiceTimer) Step() { t.runs.Add(1) }

// Observe adds a measured service duration standing for n invocations
// (which Step counts separately).
func (t *ServiceTimer) Observe(d time.Duration, n uint64) {
	if d < 0 {
		d = 0
	}
	t.hist.RecordN(uint64(d), n)
}

// ObserveSum is Observe for a sample whose n invocations took total in all,
// not n·d: they count at d in the histogram, and total in the busy time.
func (t *ServiceTimer) ObserveSum(d time.Duration, n uint64, total time.Duration) {
	t.hist.recordSum(uint64(max(d, 0)), n, uint64(max(total, 0)))
}

// Record counts one invocation and observes its duration.
func (t *ServiceTimer) Record(d time.Duration) {
	t.Step()
	t.Observe(d, 1)
}

// Count returns the exact number of invocations.
func (t *ServiceTimer) Count() uint64 { return t.runs.Load() }

// MeanNanos returns the mean service time in nanoseconds.
func (t *ServiceTimer) MeanNanos() float64 { return t.hist.Mean() }

// BusyNanos returns cumulative busy time in nanoseconds: each observed
// duration times the invocations it stands for.
func (t *ServiceTimer) BusyNanos() uint64 { return t.hist.Sum() }

// RatePerSecond converts the mean service time into a service rate
// (invocations per second). Returns 0 when no samples exist.
func (t *ServiceTimer) RatePerSecond() float64 {
	m := t.hist.Mean()
	if m <= 0 {
		return 0
	}
	return 1e9 / m
}

// Quantile returns the q-quantile of service time in nanoseconds.
func (t *ServiceTimer) Quantile(q float64) uint64 { return t.hist.Quantile(q) }

// Hist exposes the underlying service-time histogram (for exporters).
func (t *ServiceTimer) Hist() *Histogram { return &t.hist }
