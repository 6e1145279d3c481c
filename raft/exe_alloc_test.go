package raft

import (
	"math"
	"runtime"
	"testing"
)

// bothSchedulers are the options that select each scheduler.
var bothSchedulers = []struct {
	name string
	opts []Option
}{
	{"goroutine", nil},
	{"workstealing", []Option{WithWorkStealing(2)}},
}

// emptyPairs builds n independent gen -> sink int64 pairs over Cap(4)
// streams whose sources stop at once: an execution of it is all
// construction, scheduling and report.
func emptyPairs(tb testing.TB, n int) *Map {
	m := NewMap()
	for p := 0; p < n; p++ {
		gen := NewLambda[int64](0, 1, func(*LambdaKernel) Status { return Stop })
		sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
			if _, err := Pop[int64](k.In("0")); err != nil {
				return Stop
			}
			return Proceed
		})
		if _, err := m.Link(gen, sink, Cap(4)); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// allocsDuring returns the heap objects and bytes allocated while f runs.
// Other goroutines' allocations count too, so callers measure a quiet
// process and bound, rather than pin, the result.
func allocsDuring(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestExeAllocsPerKernel bounds what construction costs per kernel: the
// map building (NewLambda + Map.Link) and Exe of 1,000 empty gen -> sink
// pairs, under both schedulers. Exe allocates per transaction, not per
// object (DESIGN "Per-transaction slabs"): a kernel is one allocation with
// its ports inline, its actor binds the kernel itself, and its ring's
// header comes from a slab, so what is left per kernel is its share of the
// ring stores and of the Link, and under the default scheduler its
// goroutine.
func TestExeAllocsPerKernel(t *testing.T) {
	const pairs = 1000
	const kernels = 2 * pairs
	// Bounds on Exe's allocs per kernel, the measured value plus 0.5. Each
	// figure is the least of three builds in one process: another test's
	// goroutines can only add to a measurement, and the default
	// scheduler's first Exe also allocates the goroutines the runtime has
	// not yet cached (about one more object per kernel).
	exeBound := map[string]float64{
		"goroutine":    2.6, // measured 2.1; before Runner, inline ports and the ring slab: 3.6
		"workstealing": 1.6, // measured 1.1; before: 2.6
	}
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			perBuild, perObjs, perBytes, buildBytes := math.Inf(1), math.Inf(1), 0.0, 0.0
			for attempt := 0; attempt < 3; attempt++ {
				var m *Map
				bObjs, bBytes := allocsDuring(func() { m = emptyPairs(t, pairs) })
				var err error
				eObjs, eBytes := allocsDuring(func() { _, err = m.Exe(sched.opts...) })
				if err != nil {
					t.Fatal(err)
				}
				perBuild = min(perBuild, float64(bObjs)/kernels)
				if objs := float64(eObjs) / kernels; objs < perObjs {
					perObjs, perBytes, buildBytes = objs, float64(eBytes)/kernels, float64(bBytes)/kernels
				}
			}
			t.Logf("map building %.1f allocs and %.0f B per kernel; Exe %.1f allocs and %.0f B per kernel",
				perBuild, buildBytes, perObjs, perBytes)
			// Measured 1.5 (the kernel and half a Link); before inline
			// ports: 3.5.
			if perBuild > 2 {
				t.Errorf("NewLambda + Map.Link: %.1f allocs per kernel, want <= 2", perBuild)
			}
			if bound := exeBound[sched.name]; perObjs > bound {
				t.Errorf("Exe: %.1f allocs per kernel, want <= %.1f", perObjs, bound)
			}
			// Before per-transaction slabs: 4.8 KB per kernel; before
			// the ring slab: 3.4 KB (default) and 3.1 KB (work stealing).
			if perBytes > 3.5*1024 {
				t.Errorf("Exe: %.0f B per kernel, want <= 3.5 KB", perBytes)
			}
		})
	}
}

// BenchmarkExeManyPairs is the construction cost of the manykernels
// workload: Exe of 10k empty gen -> sink pairs under work stealing, map
// building outside the timer. Run with -benchmem.
func BenchmarkExeManyPairs(b *testing.B) {
	const pairs = 10_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := emptyPairs(b, pairs)
		b.StartTimer()
		if _, err := m.Exe(WithWorkStealing(runtime.GOMAXPROCS(0))); err != nil {
			b.Fatal(err)
		}
	}
}
