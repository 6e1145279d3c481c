package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
	"raftlib/raft"
)

// perItem times fn, which moves items elements, and returns ns and heap
// allocations per element.
func perItem(items int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(items), float64(m1.Mallocs-m0.Mallocs) / float64(items)
}

// ringPair moves items int64 through r from one goroutine to another with
// push and pop and checks the closed-form sum. wrap lets a rung put a layer
// around each side's loop body.
func ringPair(r *ringbuffer.Ring[int64], items int, wrap func(step func() core.Status) func() core.Status) error {
	var sent, sum int64
	produce := wrap(func() core.Status {
		if sent == int64(items) {
			return core.Stop
		}
		if err := r.Push(sent, ringbuffer.SigNone); err != nil {
			return core.Stop
		}
		sent++
		return core.Proceed
	})
	consume := wrap(func() core.Status {
		v, _, err := r.Pop()
		if err != nil {
			return core.Stop
		}
		sum += v
		return core.Proceed
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for consume() == core.Proceed {
		}
	}()
	for produce() == core.Proceed {
	}
	r.Close()
	wg.Wait()
	if want := arithSum(0, int64(items)); sum != want {
		return fmt.Errorf("ring probe: sum %d, want %d", sum, want)
	}
	return nil
}

// ladder is the cost ladder: the same two-kernel int64 scalar stream, one
// layer added per rung. Rungs three and up are src -> sink through Exe,
// each with the previous rung's options plus one. A rung is the median of
// three runs, because the deltas between rungs are what is read.
func ladder(e *env, m *metrics) error {
	items := max(int(700_000/e.scale), 1000)
	set := func(rung string, fn func() error) error {
		var nss, allocss []float64
		for i := 0; i < 3; i++ {
			var err error
			ns, allocs := perItem(items, func() { err = fn() })
			if err != nil {
				return err
			}
			nss, allocss = append(nss, ns), append(allocss, allocs)
		}
		m.set("ladder."+rung+"_ns", median(nss))
		m.set("ladder."+rung+"_allocs", median(allocss))
		return nil
	}
	plain := func(step func() core.Status) func() core.Status { return step }
	if err := set("ring", func() error { return ringPair(ringbuffer.NewRing[int64](64), items, plain) }); err != nil {
		return err
	}
	timed := func(step func() core.Status) func() core.Status {
		a := &core.Actor{Step: step}
		return a.StepTimed
	}
	if err := set("actor", func() error { return ringPair(ringbuffer.NewRing[int64](64), items, timed) }); err != nil {
		return err
	}
	bare := []raft.Option{raft.WithoutMonitor(), raft.WithoutLatencyMarkers(), raft.WithDynamicResize(false)}
	traced, supervised := raft.WithTrace(1<<16), raft.WithSupervision(raft.SupervisionPolicy{})
	rungs := []struct {
		name string
		opts []raft.Option
	}{
		{"exe_bare", bare},
		{"monitor", []raft.Option{raft.WithoutLatencyMarkers()}},
		{"markers", nil},
		{"trace", []raft.Option{traced}},
		{"supervised", []raft.Option{traced, supervised}},
		{"worksteal", []raft.Option{traced, supervised, raft.WithWorkStealing(runtime.GOMAXPROCS(0))}},
	}
	for _, rung := range rungs {
		err := set(rung.name, func() error {
			o, err := runPair(e, int64(items), rung.opts...)
			if err == nil && o.failed > 0 {
				err = fmt.Errorf("ladder.%s: %d of %d items wrong", rung.name, o.failed, o.attempted)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runPair is the ladder's Exe stream: a benchmark-owned src -> sink pair,
// one raft.Push and one raft.Pop per int64.
func runPair(e *env, n int64, opts ...raft.Option) (outcome, error) {
	var o outcome
	var sent, count, sum int64
	src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
		if sent == n || raft.Push(k.Out("0"), sent) != nil {
			return raft.Stop
		}
		sent++
		return raft.Proceed
	})
	sink := raft.NewLambda[int64](1, 0, func(k *raft.LambdaKernel) raft.Status {
		v, err := raft.Pop[int64](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		count++
		sum += v
		return raft.Proceed
	})
	mp := raft.NewMap()
	if _, err := mp.Link(src, sink); err != nil {
		return o, err
	}
	t0 := time.Now()
	if _, err := mp.Exe(opts...); err != nil {
		return o, err
	}
	o.exe = time.Since(t0)
	sumOracle(&o, n, 0, count, sum)
	return o, nil
}

// layerScalar adds the cost ladder and the scalar-path probes.
func layerScalar(e *env, n int64, traced outcome, m *metrics) error {
	if err := ladder(e, m); err != nil {
		return err
	}
	items := max(int(2_000_000/e.scale), 1000)

	// One goroutine, so no contention and no wake-ups: the ring's floor.
	r := ringbuffer.NewRing[int64](64)
	ns, _ := perItem(items, func() {
		for i := 0; i < items; i++ {
			_ = r.Push(int64(i), ringbuffer.SigNone) // an open ring with room cannot fail
			v, _, _ := r.Pop()
			probeSink += float64(v)
		}
	})
	m.set("ringbuffer.pushpop_1g_ns", ns)

	// The Go channel baseline: same capacity, same two goroutines.
	ch := make(chan int64, 64) // the rings' default capacity
	ns, _ = perItem(items, func() {
		done := make(chan int64)
		go func() {
			var sum int64
			for v := range ch {
				sum += v
			}
			done <- sum
		}()
		for i := 0; i < items; i++ {
			ch <- int64(i)
		}
		close(ch)
		probeSink += float64(<-done)
	})
	m.set("ringbuffer.chan_pushpop_ns", ns)

	a := &core.Actor{Step: func() core.Status { return core.Proceed }}
	ns, _ = perItem(items, func() {
		for i := 0; i < items; i++ {
			a.StepTimed()
		}
	})
	m.set("core.step_ns", ns)

	rec := trace.NewRecorder(1 << 16)
	ns, _ = perItem(items, func() {
		for i := 0; i < items; i++ {
			rec.Emit(trace.Event{Actor: int32(i & 7), Kind: trace.RunStart, At: int64(i)})
		}
	})
	m.set("trace.emit_ns", ns)

	dom := trace.NewMarkerDomain(1024)
	ns, _ = perItem(items, func() {
		for i := 0; i < items; i++ {
			dom.Retire(dom.Stamp("tenant", "probe", int64(i)), int64(i)+1)
		}
	})
	m.set("trace.marker_stamp_ns", ns)

	var fixed []float64
	for i := 0; i < 21; i++ {
		o, err := runPair(e, 0)
		if err != nil {
			return err
		}
		fixed = append(fixed, float64(o.exe.Nanoseconds())/1e6)
	}
	m.set("raft.exe_fixed_ms", median(fixed))
	return nil
}

// layerAutotune adds the bulk-path probe: 64-element PushN and PopN between
// two goroutines.
func layerAutotune(e *env, n int64, traced outcome, m *metrics) error {
	items := max(int(20_000_000/e.scale), 6400) / 64 * 64
	r := ringbuffer.NewRing[int64](1024)
	var got int64
	ns, _ := perItem(items, func() {
		done := make(chan int64)
		go func() {
			var buf [64]int64
			var sum int64
			for {
				k, err := r.PopN(buf[:], nil)
				for _, v := range buf[:k] {
					sum += v
				}
				if err != nil && k == 0 {
					break
				}
			}
			done <- sum
		}()
		var buf [64]int64
		for i := 0; i < items; i += 64 {
			for j := range buf {
				buf[j] = int64(i + j)
			}
			if err := r.PushN(buf[:], nil); err != nil {
				break
			}
		}
		r.Close()
		got = <-done
	})
	if want := arithSum(0, int64(items)); got != want {
		return fmt.Errorf("ringbuffer.pushn64 probe: sum %d, want %d", got, want)
	}
	m.set("ringbuffer.pushn64_ns_per_item", ns)
	return nil
}
