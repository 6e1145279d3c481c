package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (exclusive), which is
// what the PR driver uses to judge spread. v must hold at least two values;
// it is not modified.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the second quartile of v.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailCandidates are the percentiles a report may name, ascending.
var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// supportedTail returns the highest candidate percentile that leaves at
// least ten of n samples beyond it (the choosing-metrics rule); 50 when
// even the median does not.
func supportedTail(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // tolerance: 99.9 is not exact in binary
			best = p
		}
	}
	return best
}

// tail reports the want-th percentile of samples when the sample count
// supports it, and the highest supported percentile otherwise, so a short
// run never passes an outlier off as p99. It sorts samples in place.
func tail(samples []float64, want float64) (p, value float64) {
	sort.Float64s(samples)
	p = math.Min(want, supportedTail(len(samples)))
	return p, percentile(samples, p)
}

// clock is the time source of the open-loop generator; tests substitute a
// fake so the schedule is checked without sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep is a plain timer sleep. The reference host's timers fire about
// 1.1 ms late, longer than the interval between requests at the gateway
// workload's rates, so requests leave in small bursts and latency from due
// time includes that lag (reported as gateway.gen_lag_p99_ms). Yielding in
// a loop until the due time would be punctual, but takes a processor per
// connection from the two the program under test has, and the pipeline
// then falls behind and sheds.
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is an open-loop arrival plan for one connection: request i is
// due at start + i·interval whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
	count    int
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// run issues every request in order. It sleeps only until a request is
// due, never to catch up, and hands send the due time so latency counts the
// wait a stall imposes on later requests. The returned lags are how late
// after its due time each request was issued.
func (s schedule) run(c clock, send func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, 0, s.count)
	for i := 0; i < s.count; i++ {
		due := s.due(i)
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
		}
		lags = append(lags, c.Now().Sub(due))
		send(i, due)
	}
	return lags
}
