package stats

// BurstEWMA is an exponentially weighted moving average with high-side
// burst rejection, the smoothing discipline of the instantaneous-rate
// model in Beard & Chamberlain, "Run Time Approximation of Non-blocking
// Service Rates for Streaming Systems" (arXiv:1504.00591): runtime
// observations of service intervals and arrival windows are contaminated
// by episodes that are not part of the quantity being estimated — a
// sampled kernel invocation that sat blocked on an empty input looks like
// a 1000× service time, a producer that was descheduled and caught up
// looks like a rate spike. Folding those into a plain EWMA poisons the
// estimate for many windows.
//
// Observe therefore rejects a sample larger than BurstFactor × the
// current estimate — unless MaxStreak consecutive samples have been
// rejected, in which case the sample is accepted at full weight: a
// genuine regime change (the workload really did get slower/faster)
// looks like an unbounded burst streak, and the streak escape bounds how
// long the estimator can deny reality. Low-side samples are always
// accepted — they are what a *non-blocking* observation looks like.
//
// The zero value is unusable; construct with NewBurstEWMA. Not safe for
// concurrent use — callers (the estimator) serialize access.
type BurstEWMA struct {
	alpha       float64
	burstFactor float64
	maxStreak   int

	value  float64
	warm   []float64 // priming window; median-primed to survive an early burst
	onMean bool      // PrimeOnMean: the priming window settles on its mean
	streak int
	n      uint64
}

// NewBurstEWMA returns an estimator with smoothing factor alpha in
// (0, 1], rejecting samples above burstFactor × estimate (burstFactor
// <= 1 selects 4), with a streak escape after maxStreak consecutive
// rejections (<= 0 selects 8).
func NewBurstEWMA(alpha, burstFactor float64, maxStreak int) *BurstEWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.25
	}
	if burstFactor <= 1 {
		burstFactor = 4
	}
	if maxStreak <= 0 {
		maxStreak = 8
	}
	return &BurstEWMA{alpha: alpha, burstFactor: burstFactor, maxStreak: maxStreak}
}

// PrimeOnMean makes the priming window settle on the mean of its samples
// instead of their median, and returns e. The median is the guard for
// duration samples, where one blocked invocation is an outlier to discard.
// It is the wrong one for rates taken from exact counter deltas: there every
// window's count is real, the mean of the first k windows is exactly the
// count over their span, and a stream whose elements legitimately land in a
// minority of the windows — committed a port window at a time, or all of a
// short run's output swallowed by a growing ring within two windows — has
// a median of zero while elements are arriving.
func (e *BurstEWMA) PrimeOnMean() *BurstEWMA {
	e.onMean = true
	return e
}

// primeWindow is how many samples the median-of-first-k priming holds
// before the EWMA starts moving; small enough to prime fast, large
// enough that one blocked first invocation cannot set the baseline.
const primeWindow = 5

// Observe folds one non-negative sample into the estimate and reports
// whether it was accepted (false = rejected as a burst).
func (e *BurstEWMA) Observe(v float64) bool {
	if v < 0 {
		v = 0
	}
	e.n++
	if !e.Primed() {
		e.warm = append(e.warm, v)
		if e.onMean {
			e.value += (v - e.value) / float64(len(e.warm))
		} else {
			e.value = median(e.warm)
		}
		return true
	}
	if e.value > 0 && v > e.burstFactor*e.value {
		e.streak++
		if e.streak <= e.maxStreak {
			return false
		}
		// Streak escape: this is a regime change, not a burst.
	}
	e.streak = 0
	e.value = e.alpha*v + (1-e.alpha)*e.value
	return true
}

// Value returns the current estimate (0 until the first Observe).
func (e *BurstEWMA) Value() float64 { return e.value }

// Primed reports whether enough samples have arrived for Value to be
// meaningful (the priming window is full).
func (e *BurstEWMA) Primed() bool { return len(e.warm) >= primeWindow }

// Count returns the number of samples observed (accepted or not).
func (e *BurstEWMA) Count() uint64 { return e.n }

// median returns the median of xs without mutating it (k is tiny).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < n; i++ { // insertion sort: n <= primeWindow
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
