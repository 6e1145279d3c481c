package raft

import (
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
// object (DESIGN "Per-transaction slabs"), so a kernel costs a handful of
// objects that its own state needs: its ring store, its closures.
func TestExeAllocsPerKernel(t *testing.T) {
	const pairs = 1000
	const kernels = 2 * pairs
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			var m *Map
			buildObjs, _ := allocsDuring(func() { m = emptyPairs(t, pairs) })
			var err error
			exeObjs, exeBytes := allocsDuring(func() { _, err = m.Exe(sched.opts...) })
			if err != nil {
				t.Fatal(err)
			}
			perBuild := float64(buildObjs) / kernels
			perObjs, perBytes := float64(exeObjs)/kernels, float64(exeBytes)/kernels
			t.Logf("map building %.1f allocs/kernel; Exe %.1f allocs and %.0f B per kernel", perBuild, perObjs, perBytes)
			// Before per-transaction slabs: 9.0 allocs per kernel.
			if perBuild > 6 {
				t.Errorf("NewLambda + Map.Link: %.1f allocs per kernel, want <= 6", perBuild)
			}
			// Before per-transaction slabs: 16.0 allocs per kernel.
			if perObjs > 6 {
				t.Errorf("Exe: %.1f allocs per kernel, want <= 6", perObjs)
			}
			// Before per-transaction slabs: 4.8 KB per kernel.
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
