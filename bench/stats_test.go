package main

import (
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4), exclusive method.
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(tc.v)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(200 - i) // 200..1, unsorted
	}
	// 200 samples cannot support p99: tail must fall back to p95, not
	// report the second-largest sample as p99.
	if p, v := tail(samples, 99); p != 95 || v != 190 {
		t.Errorf("tail(200 samples, 99) = p%v %v, want p95 190", p, v)
	}
	if p, v := tail(samples, 50); p != 50 || v != 100 {
		t.Errorf("tail(200 samples, 50) = p%v %v, want p50 100", p, v)
	}
}

// fakeClock advances only when told to: by Sleep, or by the test's send
// function standing in for a request's service time.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func TestOpenLoopScheduleTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start}
	s := schedule{start: start.Add(10 * time.Millisecond), interval: 10 * time.Millisecond, count: 5}
	// Request 1 stalls for 25 ms; every other request takes 1 ms.
	service := []time.Duration{1, 25, 1, 1, 1}
	var latency []time.Duration
	lags := s.run(c, func(i int, due time.Time) {
		if want := s.start.Add(time.Duration(i) * s.interval); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due, want)
		}
		c.now = c.now.Add(service[i] * time.Millisecond)
		latency = append(latency, c.now.Sub(due))
	})
	ms := func(d time.Duration) time.Duration { return d * time.Millisecond }
	// Requests 0 and 1 leave on time. The stall makes request 2 leave 15 ms
	// late and request 3 leave 6 ms late, with no sleep in between, and
	// their latency counts that wait; request 4 is back on schedule.
	wantLags := []time.Duration{0, 0, ms(15), ms(6), 0}
	wantLat := []time.Duration{ms(1), ms(25), ms(16), ms(7), ms(1)}
	for i := range wantLags {
		if lags[i] != wantLags[i] || latency[i] != wantLat[i] {
			t.Errorf("request %d: lag %v latency %v, want lag %v latency %v", i, lags[i], latency[i], wantLags[i], wantLat[i])
		}
	}
	wantSleeps := []time.Duration{ms(10), ms(9), ms(3)}
	if len(c.sleeps) != len(wantSleeps) {
		t.Fatalf("slept %v, want %v", c.sleeps, wantSleeps)
	}
	for i := range wantSleeps {
		if c.sleeps[i] != wantSleeps[i] {
			t.Errorf("sleep %d = %v, want %v", i, c.sleeps[i], wantSleeps[i])
		}
	}
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	d, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range checkDeclared(d) {
		t.Error(bad)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s is in the tables twice", m.name)
		}
		seen[m.name] = true
	}
}

func TestHexRoundTrip(t *testing.T) {
	var b [16]byte
	for _, v := range []uint64{0, 1, 0xdeadbeef, uint64(time.Unix(1_800_000_000, 123).UnixNano())} {
		putHex(b[:], v)
		if got := parseHex(b[:]); got != v {
			t.Errorf("parseHex(putHex(%#x)) = %#x", v, got)
		}
	}
}
