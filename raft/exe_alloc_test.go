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

// emptyChains builds n independent src -> relay -> sink int64 chains over
// Cap(4) streams whose sources stop at once: as many kernels per link as
// emptyPairs has minus a third, so that the two together tell what Exe
// costs per link.
func emptyChains(tb testing.TB, n int) *Map {
	m := NewMap()
	for c := 0; c < n; c++ {
		src := NewLambda[int64](0, 1, func(*LambdaKernel) Status { return Stop })
		relay := NewLambda[int64](1, 1, func(k *LambdaKernel) Status {
			v, err := Pop[int64](k.In("0"))
			if err != nil || Push(k.Out("0"), v) != nil {
				return Stop
			}
			return Proceed
		})
		sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
			if _, err := Pop[int64](k.In("0")); err != nil {
				return Stop
			}
			return Proceed
		})
		if _, err := m.Link(src, relay, Cap(4)); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.Link(relay, sink, Cap(4)); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// TestExeAllocsPerKernel bounds what construction costs per kernel: the
// map building (NewLambda + Map.Link) and Exe of 1,200 empty gen -> sink
// pairs, under both schedulers, and what Exe costs per link, from the same
// 2,400 kernels built as 800 three-kernel chains (a third more links).
// Exe allocates per transaction, not per object (DESIGN "Per-transaction
// slabs"): a kernel is one allocation with its declared ports inline, its
// actor binds the kernel itself, and its state and its ring's header come
// from slabs, so what is left per kernel is its share of the ring stores
// and of the Link, and under the default scheduler its goroutine.
func TestExeAllocsPerKernel(t *testing.T) {
	const pairs, chains = 1200, 800
	const kernels, extraLinks = 2 * pairs, 2*chains - pairs
	// Bounds on Exe's allocs and bytes per kernel and bytes per link, the
	// measured value plus 0.5 allocs and plus 10 % bytes. Each figure is
	// the least of three builds in one process: another test's goroutines
	// can only add to a measurement, and the default scheduler's first Exe
	// also allocates the goroutines the runtime has not yet cached (about
	// one more object per kernel).
	bounds := map[string]struct{ allocs, bytes, linkBytes float64 }{
		// Measured 2.1 allocs and 2,206 B per kernel; per link 1,816-2,202
		// B, which moves with the runtime's cache of goroutines and is
		// therefore logged, not bounded. Before Runner, inline ports and the
		// ring slab: 3.6 allocs; before hot and cold slabs: 2,727 B per
		// kernel and 2,844 B per link.
		"goroutine": {2.6, 2430, 0},
		// Measured 1.1 allocs, 2,320 B and 1,940 B; before: 2.6 allocs,
		// 2,849 B and 2,903 B.
		"workstealing": {1.6, 2550, 2140},
	}
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			perBuild, perObjs, perBytes, buildBytes := math.Inf(1), math.Inf(1), 0.0, 0.0
			chainBytes := math.Inf(1)
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
				m = emptyChains(t, chains)
				_, cBytes := allocsDuring(func() { _, err = m.Exe(sched.opts...) })
				if err != nil {
					t.Fatal(err)
				}
				chainBytes = min(chainBytes, float64(cBytes))
			}
			perLink := (chainBytes - perBytes*kernels) / extraLinks
			t.Logf("map building %.1f allocs and %.0f B per kernel; Exe %.1f allocs and %.0f B per kernel, %.0f B per link",
				perBuild, buildBytes, perObjs, perBytes, perLink)
			// Measured 1.5 allocs (the kernel and half a Link) and 430 B;
			// before inline ports: 3.5 allocs; before ports sized to the
			// declaration: 590 B.
			if perBuild > 2 {
				t.Errorf("NewLambda + Map.Link: %.1f allocs per kernel, want <= 2", perBuild)
			}
			if buildBytes > 480 {
				t.Errorf("NewLambda + Map.Link: %.0f B per kernel, want <= 480", buildBytes)
			}
			b := bounds[sched.name]
			if perObjs > b.allocs {
				t.Errorf("Exe: %.1f allocs per kernel, want <= %.1f", perObjs, b.allocs)
			}
			if perBytes > b.bytes {
				t.Errorf("Exe: %.0f B per kernel, want <= %.0f", perBytes, b.bytes)
			}
			if b.linkBytes > 0 && perLink > b.linkBytes {
				t.Errorf("Exe: %.0f B per link, want <= %.0f", perLink, b.linkBytes)
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
