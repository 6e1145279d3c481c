package main

import (
	"time"

	"raftlib/kernels"
	"raftlib/raft"
)

// seedBase turns the seed into the first value of a workload's integer
// stream, so a different seed moves different payload through the rings
// while the closed-form oracle still holds.
func seedBase(seed uint64) int64 { return int64(seed%1_000_003) * 7 }

// arithSum is base + (base+1) + ... + (base+n-1).
func arithSum(base, n int64) int64 { return n*base + n*(n-1)/2 }

// sumOracle compares a delivered count and sum with the closed form.
func sumOracle(o *outcome, n, base, count, sum int64) {
	o.items, o.bytes, o.attempted = count, count*8, n
	o.failed = max(n-count, count-n)
	if o.failed == 0 && sum != arithSum(base, n) {
		o.failed = 1
	}
}

// runScalar is the scalar workload: benchmark-owned lambda kernels
// src -> relay -> sink with one raft.Pop and one raft.Push per int64 under
// default Exe options. The kernels compute nothing, so ring, port accessor
// and actor step are nearly all the work, and the rings stay full.
func runScalar(e *env, n int64) (outcome, error) {
	var o outcome
	run, endRun := e.tr.begin("run", 0)
	defer endRun()
	_, endBuild := e.tr.begin("build", run)
	buildStart := time.Now()
	base := seedBase(e.seed)
	ksrc, krelay, ksink := e.tr.kernel("src"), e.tr.kernel("relay"), e.tr.kernel("sink")

	var sent int64
	src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
		if sent == n {
			return raft.Stop
		}
		sampled := ksrc.sample()
		err := raft.Push(k.Out("0"), base+sent)
		if sampled {
			ksrc.done(ksrc.port(true, ksrc.runStart))
		}
		if err != nil {
			return raft.Stop
		}
		sent++
		return raft.Proceed
	})
	src.SetName("src")
	relay := raft.NewLambda[int64](1, 1, func(k *raft.LambdaKernel) raft.Status {
		sampled := krelay.sample()
		v, err := raft.Pop[int64](k.In("0"))
		var t int64
		if sampled {
			t = krelay.port(false, krelay.runStart)
		}
		if err == nil {
			err = raft.Push(k.Out("0"), v)
		}
		if sampled {
			krelay.done(krelay.port(true, t))
		}
		if err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	relay.SetName("relay")
	var count, sum int64
	sink := raft.NewLambda[int64](1, 0, func(k *raft.LambdaKernel) raft.Status {
		sampled := ksink.sample()
		v, err := raft.Pop[int64](k.In("0"))
		if sampled {
			ksink.done(ksink.port(false, ksink.runStart))
		}
		if err != nil {
			return raft.Stop
		}
		count++
		sum += v
		return raft.Proceed
	})
	sink.SetName("sink")

	m := raft.NewMap()
	if _, err := m.Link(src, relay); err != nil {
		return o, err
	}
	if _, err := m.Link(relay, sink); err != nil {
		return o, err
	}
	o.build, o.kernels = time.Since(buildStart), 3
	endBuild()

	exe, endExe := e.tr.begin("exe", run)
	o.exeStart = time.Now()
	rep, err := m.Exe()
	o.exe = time.Since(o.exeStart)
	endExe()
	if err != nil {
		return o, err
	}
	_, endVerify := e.tr.begin("verify", run)
	for _, k := range []*ktrace{ksrc, krelay, ksink} {
		k.flush(exe, &o.ports)
	}
	o.lanes = 3
	o.reports = []*raft.Report{rep}
	sumOracle(&o, n, base, count, sum)
	endVerify()
	return o, nil
}

// runAutotune is the autotune workload: the library's generate -> reduce on
// int64 with no SetBatch, adaptive batching on and default capacity, so the
// monitor has to find batch size and capacity by itself. After the ramp the
// bulk path carries the data and the scalar path is idle.
func runAutotune(e *env, n int64) (outcome, error) {
	var o outcome
	run, endRun := e.tr.begin("run", 0)
	defer endRun()
	_, endBuild := e.tr.begin("build", run)
	buildStart := time.Now()
	base := seedBase(e.seed)
	var sum int64
	gen := kernels.NewGenerate(n, func(i int64) int64 { return base + i })
	red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &sum)
	m := raft.NewMap()
	if _, err := m.Link(gen, red); err != nil {
		return o, err
	}
	o.build, o.kernels = time.Since(buildStart), 2
	endBuild()

	_, endExe := e.tr.begin("exe", run)
	o.exeStart = time.Now()
	rep, err := m.Exe(raft.WithAdaptiveBatching(true))
	o.exe = time.Since(o.exeStart)
	endExe()
	if err != nil {
		return o, err
	}
	_, endVerify := e.tr.begin("verify", run)
	o.reports = []*raft.Report{rep}
	// Reduce folds what it receives and publishes only the sum, so the
	// count is the link's pop count from the public Report.
	var pops int64
	for _, l := range rep.Links {
		pops += int64(l.Pops)
	}
	sumOracle(&o, n, base, pops, sum)
	endVerify()
	return o, nil
}
