package stats

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"raftlib/internal/owned"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero value count = %d, want 0", c.Load())
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("count = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	if got := g.Add(-3); got != 7 {
		t.Fatalf("Add = %d, want 7", got)
	}
	if got := g.Load(); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
}

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {math.MaxUint64, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramMeanMaxCount(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 4, 10} {
		h.RecordN(v, 1)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Mean(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("mean = %v, want 4", got)
	}
	if h.Max() != 10 {
		t.Fatalf("max = %d, want 10", h.Max())
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("quantile of empty = %d, want 0", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.RecordN(i, 1)
	}
	// Bucket upper edges are powers of two; the estimate must bracket the
	// true quantile from above but within one bucket (2x).
	for _, q := range []float64{0.05, 0.5, 0.95, 1.0} {
		true0 := q * 1000
		got := float64(h.Quantile(q))
		if got < true0 || got > 2*true0+2 {
			t.Errorf("Quantile(%v) = %v, true %v: outside [true, 2*true]", q, got, true0)
		}
	}
	// Out-of-range q values are clamped, not panicking.
	_ = h.Quantile(-0.5)
	_ = h.Quantile(1.5)
}

func TestHistogramPropertyMeanAndCount(t *testing.T) {
	f := func(vs []uint16) bool {
		var h Histogram
		var sum uint64
		for _, v := range vs {
			h.RecordN(uint64(v), 1)
			sum += uint64(v)
		}
		if h.Count() != uint64(len(vs)) {
			return false
		}
		if len(vs) == 0 {
			return h.Mean() == 0
		}
		want := float64(sum) / float64(len(vs))
		return math.Abs(h.Mean()-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPropertyQuantileMonotone(t *testing.T) {
	f := func(vs []uint32) bool {
		if len(vs) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vs {
			h.RecordN(uint64(v), 1)
		}
		prev := uint64(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSnapshotString(t *testing.T) {
	var h Histogram
	h.RecordN(0, 1)
	h.RecordN(5, 1)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("expected non-empty rendering")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := uint64(0); j < 1000; j++ {
				h.RecordN(j, 1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if h.Max() != 999 {
		t.Fatalf("max = %d, want 999", h.Max())
	}
}

func TestOccupancy(t *testing.T) {
	var o Occupancy
	o.Sample(0, 8)  // starved
	o.Sample(8, 8)  // full
	o.Sample(7, 8)  // near-full (within 12.5%)
	o.Sample(4, 8)  // mid
	o.Sample(-1, 8) // clamped to 0, starved
	if got := o.StarvedFraction(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("starved = %v, want 0.4", got)
	}
	if got := o.FullFraction(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("full = %v, want 0.4", got)
	}
	if got := o.Mean(); math.Abs(got-19.0/5) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, 19.0/5)
	}
}

func TestOccupancyEmpty(t *testing.T) {
	var o Occupancy
	if o.FullFraction() != 0 || o.StarvedFraction() != 0 {
		t.Fatal("fractions of empty sampler must be 0")
	}
}

func TestServiceTimer(t *testing.T) {
	var st ServiceTimer
	st.Record(100 * time.Nanosecond)
	st.Record(300 * time.Nanosecond)
	st.Record(-time.Second) // clamped to 0
	if st.Count() != 3 {
		t.Fatalf("count = %d, want 3", st.Count())
	}
	if st.BusyNanos() != 400 {
		t.Fatalf("busy = %d, want 400", st.BusyNanos())
	}
	wantMean := 400.0 / 3.0
	if math.Abs(st.MeanNanos()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", st.MeanNanos(), wantMean)
	}
	if st.RatePerSecond() <= 0 {
		t.Fatalf("rate = %v, want > 0", st.RatePerSecond())
	}
	if st.Quantile(1.0) < 300 {
		t.Fatalf("p100 = %d, want >= 300", st.Quantile(1.0))
	}
}

func TestServiceTimerTime(t *testing.T) {
	var st ServiceTimer
	st.Time(func() { time.Sleep(time.Millisecond) })
	if st.Count() != 1 {
		t.Fatalf("count = %d, want 1", st.Count())
	}
	if st.MeanNanos() < float64(time.Millisecond)/2 {
		t.Fatalf("mean = %v ns, want >= 0.5ms", st.MeanNanos())
	}
}

// TestOwnedCounterOneWriter checks the single-writer counter that
// ServiceTimer's run count and the ring's commit counters sit on: the
// owner adds by a load and a store, handing ownership to a second goroutine
// halfway as a stolen kernel does, while two readers spin on Load. Each
// reader sees the count never fall, and after the writers are done every
// Load returns the exact total. The counter follows a 4-byte field, so on
// 32-bit targets a misaligned 64-bit atomic would panic here. It lives in
// this package, the primitive's first user, so that the race and 32-bit
// test legs run it.
func TestOwnedCounterOneWriter(t *testing.T) {
	var s struct {
		_ uint32
		c owned.Counter
	}
	const adds = 1 << 20
	var total uint64
	for i := 0; i < adds; i++ {
		total += uint64(i%3 + 1)
	}
	var done atomic.Bool
	var wg, reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		reading.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			reading.Done()
			for !done.Load() {
				v := s.c.Load()
				if v < last {
					t.Errorf("reader saw %d after %d", v, last)
					return
				}
				last = v
			}
			if v := s.c.Load(); v != total {
				t.Errorf("reader's final load %d, want %d", v, total)
			}
		}()
	}
	handover := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		reading.Wait()
		for i := 0; i < adds/2; i++ {
			s.c.Add(uint64(i%3 + 1))
		}
		close(handover)
	}()
	go func() {
		defer wg.Done()
		<-handover
		for i := adds / 2; i < adds; i++ {
			s.c.Add(uint64(i%3 + 1))
		}
		done.Store(true)
	}()
	wg.Wait()
	if v := s.c.Load(); v != total {
		t.Fatalf("final load %d, want %d", v, total)
	}
}

func TestServiceTimerEmptyRate(t *testing.T) {
	var st ServiceTimer
	if st.RatePerSecond() != 0 {
		t.Fatal("rate of empty timer must be 0")
	}
}

func TestLogQuantile(t *testing.T) {
	// 10 samples in bucket 1 ([2,4)), 90 in bucket 5 ([32,64)).
	buckets := make([]uint64, 33)
	buckets[1] = 10
	buckets[5] = 90
	if got := LogQuantile(buckets, 0.05); got != 3 {
		t.Fatalf("p5 = %d, want 3", got)
	}
	if got := LogQuantile(buckets, 0.99); got != 63 {
		t.Fatalf("p99 = %d, want 63", got)
	}
	if got := LogQuantile(make([]uint64, 33), 0.5); got != 0 {
		t.Fatalf("empty = %d, want 0", got)
	}
	only := make([]uint64, 33)
	only[0] = 5
	if got := LogQuantile(only, 0.5); got != 1 {
		t.Fatalf("bucket0 = %d, want 1", got)
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.RecordN(uint64(i), 1)
	}
	s := h.Snapshot()
	if s.Quantile(0.5) != h.Quantile(0.5) {
		t.Fatalf("snapshot quantile %d != live %d", s.Quantile(0.5), h.Quantile(0.5))
	}
}
