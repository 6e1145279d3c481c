package stats

import "testing"

func TestBurstEWMAPrimesOnMedian(t *testing.T) {
	e := NewBurstEWMA(0.3, 4, 8)
	// First invocation blocked on an empty input: a 1000× outlier inside
	// the priming window must not set the baseline.
	for _, v := range []float64{100000, 100, 110, 90, 105} {
		if !e.Observe(v) {
			t.Fatalf("priming sample %v rejected", v)
		}
	}
	if !e.Primed() {
		t.Fatal("not primed after 5 samples")
	}
	if v := e.Value(); v != 105 {
		t.Fatalf("primed value = %v, want median 105", v)
	}
}

func TestBurstEWMAPrimesOnMeanWhenAsked(t *testing.T) {
	// Counter deltas per window of a stream whose elements all arrive in
	// two of the five priming windows: the median says nothing arrived.
	windows := []float64{10_000, 20_000, 0, 0, 0}
	med, mean := NewBurstEWMA(0.3, 4, 8), NewBurstEWMA(0.3, 4, 8).PrimeOnMean()
	for _, v := range windows {
		med.Observe(v)
		mean.Observe(v)
	}
	if !mean.Primed() || mean.Value() != 6000 {
		t.Fatalf("mean-primed value = %v primed=%v, want 6000", mean.Value(), mean.Primed())
	}
	if med.Value() != 0 {
		t.Fatalf("median-primed value = %v, want 0", med.Value())
	}
	// After priming both are the same EWMA.
	mean.Observe(0)
	if got, want := mean.Value(), 0.7*6000; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("after one empty window: %v, want %v", got, want)
	}
}

func TestBurstEWMANotPrimedEarly(t *testing.T) {
	e := NewBurstEWMA(0.3, 4, 8)
	for i := 0; i < 4; i++ {
		e.Observe(10)
	}
	if e.Primed() {
		t.Fatal("primed after 4 samples, want 5")
	}
}

func TestBurstEWMARejectsHighSide(t *testing.T) {
	e := NewBurstEWMA(0.3, 4, 8)
	for i := 0; i < 5; i++ {
		e.Observe(100)
	}
	if e.Observe(1000) {
		t.Fatal("10x burst accepted")
	}
	if e.Value() != 100 {
		t.Fatalf("value moved to %v on a rejected burst", e.Value())
	}
}

func TestBurstEWMAAcceptsLowSide(t *testing.T) {
	e := NewBurstEWMA(0.5, 4, 8)
	for i := 0; i < 5; i++ {
		e.Observe(100)
	}
	// A far smaller sample is what a non-blocking observation looks like;
	// it must always fold in.
	if !e.Observe(1) {
		t.Fatal("low-side sample rejected")
	}
	if v := e.Value(); v != 0.5*1+0.5*100 {
		t.Fatalf("value = %v, want 50.5", v)
	}
}

func TestBurstEWMAStreakEscapeFollowsRegimeChange(t *testing.T) {
	e := NewBurstEWMA(0.3, 4, 3)
	for i := 0; i < 5; i++ {
		e.Observe(100)
	}
	// The workload genuinely got 10x slower: after maxStreak consecutive
	// rejections the next sample folds in at full weight.
	accepted := 0
	for i := 0; i < 10; i++ {
		if e.Observe(1000) {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("streak escape never fired")
	}
	if e.Value() < 500 {
		t.Fatalf("value = %v; estimator denied a regime change", e.Value())
	}
}

func TestBurstEWMAConvergence(t *testing.T) {
	e := NewBurstEWMA(0.3, 4, 8)
	for i := 0; i < 50; i++ {
		e.Observe(42)
	}
	if v := e.Value(); v < 41.9 || v > 42.1 {
		t.Fatalf("value = %v, want ~42", v)
	}
	if e.Count() != 50 {
		t.Fatalf("count = %d", e.Count())
	}
}

func TestBurstEWMANegativeClamped(t *testing.T) {
	e := NewBurstEWMA(0.3, 4, 8)
	e.Observe(-5)
	if e.Value() != 0 {
		t.Fatalf("value = %v, want clamped 0", e.Value())
	}
}
