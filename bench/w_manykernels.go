package main

import (
	"fmt"
	"runtime"
	"time"

	"raftlib/internal/graph"
	"raftlib/internal/mapper"
	"raftlib/internal/qmodel"
	"raftlib/raft"
)

const (
	manyPairs    = 10_000 // independent gen -> sink pairs per execution
	manyItemsPer = 64     // items each pair moves
)

// buildMany builds pairs independent gen -> sink pipelines of itemsPer
// int64 each over Cap(4) streams. Every sink keeps its own counter and sum
// (a counter shared by the sinks would race under a multi-worker
// scheduler); the caller adds them up after Exe.
func buildMany(e *env, pairs int, itemsPer int64) (*raft.Map, []int64, []int64, []*ktrace, error) {
	m := raft.NewMap()
	counts, sums := make([]int64, pairs), make([]int64, pairs)
	base := seedBase(e.seed)
	var kts []*ktrace
	for p := 0; p < pairs; p++ {
		kgen, ksink := e.tr.kernel("gen"), e.tr.kernel("sink")
		if kgen != nil {
			kts = append(kts, kgen, ksink)
		}
		var sent int64
		first := base + int64(p)
		gen := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
			if sent == itemsPer {
				return raft.Stop
			}
			sampled := kgen.sample()
			err := raft.Push(k.Out("0"), first+sent)
			if sampled {
				kgen.done(kgen.port(true, kgen.runStart))
			}
			if err != nil {
				return raft.Stop
			}
			sent++
			return raft.Proceed
		})
		count, sum := &counts[p], &sums[p]
		sink := raft.NewLambda[int64](1, 0, func(k *raft.LambdaKernel) raft.Status {
			sampled := ksink.sample()
			v, err := raft.Pop[int64](k.In("0"))
			if sampled {
				ksink.done(ksink.port(false, ksink.runStart))
			}
			if err != nil {
				return raft.Stop
			}
			*count++
			*sum += v
			return raft.Proceed
		})
		if _, err := m.Link(gen, sink, raft.Cap(4)); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return m, counts, sums, kts, nil
}

// runMany executes n back-to-back graphs of manyPairs pairs under the given
// scheduler options and checks every pair's count and sum.
func runMany(e *env, n int64, pairs int, opts ...raft.Option) (outcome, error) {
	var o outcome
	run, endRun := e.tr.begin("run", 0)
	defer endRun()
	itemsPer := int64(manyItemsPer)
	if n == 0 {
		n, itemsPer = 1, 0
	}
	base := seedBase(e.seed)
	o.exeStart = time.Now()
	for i := int64(0); i < n; i++ {
		_, endBuild := e.tr.begin("build", run)
		t0 := time.Now()
		m, counts, sums, kts, err := buildMany(e, pairs, itemsPer)
		if err != nil {
			return o, err
		}
		o.build += time.Since(t0)
		endBuild()
		exe, endExe := e.tr.begin("exe", run)
		t0 = time.Now()
		rep, err := m.Exe(opts...)
		o.exe += time.Since(t0)
		endExe()
		if err != nil {
			return o, err
		}
		_, endVerify := e.tr.begin("verify", run)
		for _, k := range kts {
			k.flush(exe, &o.ports)
		}
		o.kernels, o.execs, o.lanes = 2*pairs, n, runtime.GOMAXPROCS(0)
		o.reports = append(o.reports, rep)
		// One operation per item; a pair with the right count but the wrong
		// sum counts as one failure.
		for p := range counts {
			o.items += counts[p]
			o.attempted += itemsPer
			o.failed += max(itemsPer-counts[p], counts[p]-itemsPer)
			if counts[p] == itemsPer && sums[p] != arithSum(base+int64(p), itemsPer) {
				o.failed++
			}
		}
		endVerify()
	}
	o.bytes = o.items * 8
	return o, nil
}

// runManykernels is the manykernels workload: 10 000 independent pairs of
// 64 items under the work-stealing scheduler. Graph construction (verify,
// map, allocate, bind) and scheduler park/wake dominate.
func runManykernels(e *env, n int64) (outcome, error) {
	return runMany(e, n, max(int(manyPairs/e.scale), 1), raft.WithWorkStealing(runtime.GOMAXPROCS(0)))
}

// layerManykernels adds the same graph under the default scheduler and the
// construction-path probes on a 20 000-kernel graph.
func layerManykernels(e *env, n int64, traced outcome, m *metrics) error {
	plain := *e
	plain.tr = nil
	pairs := max(int(manyPairs/e.scale), 1)
	o, err := runMany(&plain, 1, pairs)
	if err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("scheduler.goroutine: %d of %d items wrong under the default scheduler", o.failed, o.attempted)
	}
	m.set("scheduler.goroutine.items_per_s", float64(o.items)/o.exe.Seconds())

	var g graph.Graph
	for p := 0; p < pairs; p++ {
		a, b := g.AddNode("gen", 1), g.AddNode("sink", 1)
		g.AddEdge(a, b, "0", "0", "int64", 1)
	}
	t0 := time.Now()
	if err := g.Verify(); err != nil {
		return err
	}
	m.set("graph.verify_ms", float64(time.Since(t0).Microseconds())/1e3)
	t0 = time.Now()
	if _, err := mapper.Assign(&g, mapper.NewLocal(runtime.GOMAXPROCS(0), 1)); err != nil {
		return err
	}
	m.set("mapper.partition_ms", float64(time.Since(t0).Microseconds())/1e3)

	const calls = 1_000_000
	var sink float64
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		sink += qmodel.PredictWait(float64(1000+i%7), 900, 2)
	}
	m.set("qmodel.predictwait_ns", float64(time.Since(t0).Nanoseconds())/calls)
	probeSink = sink
	return nil
}

// probeSink keeps the compiler from deleting a probe loop whose result is
// otherwise unused.
var probeSink float64
