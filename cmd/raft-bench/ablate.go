package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"raftlib/internal/apps/textsearch"
	"raftlib/internal/corpus"
	"raftlib/internal/graph"
	"raftlib/internal/mapper"
	"raftlib/kernels"
	"raftlib/raft"
)

// runAblation dispatches one DESIGN.md ablation study.
func runAblation(name string, corpusMB int, cores []int) {
	switch name {
	case "split":
		ablateSplit()
	case "resize":
		ablateResize()
	case "clone":
		ablateClone(corpusMB)
	case "sched":
		ablateSchedScale()
	case "monitor":
		ablateMonitor(corpusMB)
	case "map":
		ablateMap()
	case "model":
		ablateModel(corpusMB)
	case "swap":
		ablateSwap(corpusMB)
	case "batch":
		ablateBatch(corpusMB)
	case "obs":
		ablateObs(corpusMB)
	case "rate":
		ablateRate()
	case "gateway":
		ablateGateway()
	case "view":
		ablateView()
	case "latency":
		ablateLatency()
	case "graph":
		ablateGraph()
	default:
		fmt.Fprintf(os.Stderr, "raft-bench: unknown ablation %q\n", name)
		os.Exit(2)
	}
}

// newSkewedWorker returns a cloneable worker whose per-item service time
// is heavy tailed: most items are quick, every 8th holds the replica for
// ~40x longer (modeled as latency — an I/O wait or a cache-miss storm —
// so replica overlap is observable even on a single-CPU host). Skew is
// what separates the split policies (§4.1).
func newSkewedWorker() raft.Kernel {
	return raft.NewLambdaCloneable(func() *raft.LambdaKernel {
		return raft.NewLambda[int64](1, 1, func(k *raft.LambdaKernel) raft.Status {
			v, err := raft.Pop[int64](k.In("0"))
			if err != nil {
				return raft.Stop
			}
			d := time.Millisecond
			if v%8 == 0 {
				d = 10 * time.Millisecond
			}
			time.Sleep(d)
			if err := raft.Push(k.Out("0"), v); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		})
	})
}

// ablateSplit compares the round-robin and least-utilized distribution
// strategies under a skewed workload (A1).
func ablateSplit() {
	header("A1: Split strategy — round-robin vs least-utilized (skewed work)")
	const items = 800
	const replicas = 4
	fmt.Printf("%d items, %d replicas, every 8th item ~10x slower\n", items, replicas)
	fmt.Printf("(the heavy period resonates with round-robin: heavies pile on one replica)\n\n")
	fmt.Printf("%-16s %-12s\n", "policy", "elapsed(ms)")
	for _, policy := range []raft.SplitPolicy{raft.RoundRobin, raft.LeastUtilized} {
		m := raft.NewMap()
		var out []int64
		w := newSkewedWorker()
		m.MustLink(kernels.NewGenerate(items, func(i int64) int64 { return i }), w,
			raft.AsOutOfOrder(), raft.Cap(4), raft.MaxCap(4))
		m.MustLink(w, kernels.NewWriteEach(&out))
		start := time.Now()
		if _, err := m.Exe(raft.WithAutoReplicate(replicas), raft.WithSplitPolicy(policy)); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-16s %-12.1f\n", policy, float64(time.Since(start))/float64(time.Millisecond))
		if len(out) != items {
			fmt.Printf("!! received %d items, want %d\n", len(out), items)
		}
	}
	fmt.Println("\nexpected: least-utilized wins under skew (it routes around")
	fmt.Println("replicas stuck on heavy items; round-robin queues behind them).")
}

// ablateResize compares fixed-small, fixed-large and dynamically resized
// queues on a bursty producer (A2). The producer emits a burst of B items
// (instant), then pays a long per-burst latency (an I/O fetch); the
// consumer drains steadily. A queue that can hold a whole burst lets the
// consumer work through the producer's idle period; an undersized queue
// forces the consumer to idle during every fetch. This effect is
// buffering, not parallelism, so it reproduces on any core count.
func ablateResize() {
	header("A2: Queue sizing — fixed small / fixed large / dynamic resize")
	const (
		burst    = 64
		bursts   = 10
		fetchLat = 200 * time.Millisecond
		drainLat = 3 * time.Millisecond
	)
	type cfg struct {
		name string
		opts []raft.Option
		link []raft.LinkOption
	}
	cases := []cfg{
		{name: "fixed-4",
			opts: []raft.Option{raft.WithDynamicResize(false)},
			link: []raft.LinkOption{raft.Cap(4), raft.MaxCap(4)}},
		{name: "fixed-256",
			opts: []raft.Option{raft.WithDynamicResize(false)},
			link: []raft.LinkOption{raft.Cap(256), raft.MaxCap(256)}},
		{name: "dynamic(4->)",
			opts: []raft.Option{raft.WithDynamicResize(true)},
			link: []raft.LinkOption{raft.Cap(4)}},
	}
	fmt.Printf("burst=%d items, %d bursts, %v fetch latency per burst, %v drain per item\n\n",
		burst, bursts, fetchLat, drainLat)
	fmt.Printf("%-16s %-12s %-10s %-10s\n", "config", "elapsed(ms)", "grows", "finalCap")
	for _, c := range cases {
		m := raft.NewMap()
		var produced int64
		src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
			if produced >= burst*bursts {
				return raft.Stop
			}
			if produced%burst == 0 {
				time.Sleep(fetchLat) // fetch the next burst
			}
			if err := raft.Push(k.Out("0"), produced); err != nil {
				return raft.Stop
			}
			produced++
			return raft.Proceed
		})
		sink := raft.NewLambda[int64](1, 0, func(k *raft.LambdaKernel) raft.Status {
			if _, err := raft.Pop[int64](k.In("0")); err != nil {
				return raft.Stop
			}
			time.Sleep(drainLat)
			return raft.Proceed
		})
		m.MustLink(src, sink, c.link...)
		start := time.Now()
		rep, err := m.Exe(c.opts...)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		var grows uint64
		finalCap := 0
		for _, l := range rep.Links {
			grows += l.Grows
			finalCap = l.FinalCap
		}
		fmt.Printf("%-16s %-12.1f %-10d %-10d\n", c.name,
			float64(time.Since(start))/float64(time.Millisecond), grows, finalCap)
	}
	fmt.Println("\nexpected: fixed-4 is ~2x slower (consumer idles through every")
	fmt.Println("fetch); dynamic grows to burst size and matches fixed-256")
	fmt.Println("without pre-committing the memory.")
}

// ablateClone compares no replication, static full-width replication, and
// monitor-driven auto-scaling on the text search app (A3).
func ablateClone(corpusMB int) {
	header("A3: Kernel replication — off / static / monitor-driven auto-scale")
	data := corpus.Generate(corpus.Spec{Bytes: corpusMB << 20, Seed: 7 + benchSeed})
	// Use at least 4 replicas so the group machinery is exercised even on
	// few-core hosts (speedup, of course, requires the cores).
	replicas := runtime.GOMAXPROCS(0)
	if replicas < 4 {
		replicas = 4
	}
	fmt.Printf("%d MiB corpus, replica ceiling %d\n\n", corpusMB, replicas)
	fmt.Printf("%-18s %-10s %-14s %-s\n", "config", "GB/s", "activeAtEnd", "scale events")
	type cfg struct {
		name  string
		cores int
		extra []raft.Option
	}
	for _, c := range []cfg{
		{"no-replication", 1, nil},
		{"static-width", replicas, nil},
		{"auto-scale", replicas, []raft.Option{raft.WithAutoScale(true)}},
	} {
		res, err := textsearch.Run(data, textsearch.Config{
			Algo: "ahocorasick", Cores: c.cores, ExtraExeOpts: c.extra,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		active, events := "-", 0
		if len(res.Report.Groups) > 0 {
			active = fmt.Sprint(res.Report.Groups[0].ActiveAtEnd)
		}
		for _, e := range res.Report.MonitorEvents {
			if e.Kind == "scale-up" || e.Kind == "scale-down" {
				events++
			}
		}
		fmt.Printf("%-18s %-10s %-14s %d\n", c.name, gbps(res.Throughput(len(data))), active, events)
	}
	fmt.Println("\nexpected: static and auto-scale both beat no-replication; auto-")
	fmt.Println("scale reaches similar throughput while the monitor widens the")
	fmt.Println("group only as back-pressure appears.")
}

// benchSchedKernels is the A17 sweep's kernel-count ladder, settable with
// the -sched-kernels flag.
var benchSchedKernels = []int{1000, 10000, 100000}

// ablateSchedScale is the A17 scale sweep: the goroutine-per-kernel
// scheduler against the work-stealing scheduler on graphs of 1k, 10k and
// 100k kernels. The workload is kernel-count stress, not bandwidth: k/2
// independent producer->consumer pairs over tiny fixed queues, so almost
// every scheduling decision is a stall/park/wake transition and the
// scheduler's bookkeeping cost dominates. Two bars gate the configuration:
// work-stealing must stay within 5% of the goroutine scheduler at the
// smallest scale (no fixed overhead regression) and must sustain that at
// the largest (parked kernels must cost nothing while they wait).
func ablateSchedScale() {
	header("A17: Work-stealing scheduler — 1k/10k/100k-kernel scale sweep")
	const itemsPer = 64
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("k/2 gen->sink pairs, %d items each, Cap(4) queues, %d steal workers\n\n", itemsPer, workers)
	fmt.Printf("%-8s %-14s %-12s %-8s %-10s %-10s %-10s %-10s\n",
		"kernels", "scheduler", "elapsed(ms)", "ratio", "steals", "parks", "wakes", "rescues")

	// Each sink counts into its own slot: the sinks run on several
	// processors at once, and a shared plain counter loses updates.
	build := func(k int) (*raft.Map, []int64) {
		m := raft.NewMap()
		got := make([]int64, k/2)
		for p := 0; p < k/2; p++ {
			sent, mine := 0, &got[p]
			gen := raft.NewLambda[int64](0, 1, func(lk *raft.LambdaKernel) raft.Status {
				if sent == itemsPer {
					return raft.Stop
				}
				if err := raft.Push(lk.Out("0"), int64(sent)); err != nil {
					return raft.Stop
				}
				sent++
				return raft.Proceed
			})
			sink := raft.NewLambda[int64](1, 0, func(lk *raft.LambdaKernel) raft.Status {
				if _, err := raft.Pop[int64](lk.In("0")); err != nil {
					return raft.Stop
				}
				*mine++
				return raft.Proceed
			})
			m.MustLink(gen, sink, raft.Cap(4), raft.MaxCap(4))
		}
		return m, got
	}

	for si, k := range benchSchedKernels {
		var base time.Duration
		for _, ws := range []bool{false, true} {
			m, got := build(k)
			opts := []raft.Option{raft.WithDynamicResize(false), raft.WithoutMonitor()}
			name := "goroutine"
			if ws {
				opts = append(opts, raft.WithWorkStealing(workers))
				name = fmt.Sprintf("worksteal-%d", workers)
			}
			start := time.Now()
			rep, err := m.Exe(opts...)
			elapsed := time.Since(start)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			var moved int64
			for _, n := range got {
				moved += n
			}
			if want := int64(k/2) * itemsPer; moved != want {
				failf("A17: %s at %d kernels moved %d elements, want %d", name, k, moved, want)
			}
			if !ws {
				base = elapsed
				fmt.Printf("%-8d %-14s %-12.1f %-8s %-10s %-10s %-10s %-10s\n",
					k, name, float64(elapsed)/float64(time.Millisecond), "1.00", "-", "-", "-", "-")
				continue
			}
			ratio := float64(elapsed) / float64(base)
			if rep.Sched == nil {
				failf("A17: work-stealing report carries no Sched section")
				return
			}
			s := rep.Sched
			fmt.Printf("%-8d %-14s %-12.1f %-8.2f %-10d %-10d %-10d %-10d\n",
				k, name, float64(elapsed)/float64(time.Millisecond), ratio,
				s.Steals, s.Parks, s.Wakes, s.Rescues)
			if s.Parks == 0 || s.Wakes == 0 {
				failf("A17: no park/wake activity at %d kernels on Cap(4) queues — hooks dead?", k)
			}
			// The smallest scale prices fixed overhead; the largest prices
			// idle-kernel cost. Both bars are the same 5% envelope: within
			// it at 1k means no regression, within it at 100k means parked
			// kernels scale for free.
			if si == 0 && ratio > 1.05 {
				failf("A17: work-stealing %.2fx the goroutine scheduler at %d kernels, bar is 1.05x", ratio, k)
			}
			if si == len(benchSchedKernels)-1 && ratio > 1.05 {
				failf("A17: work-stealing did not sustain at %d kernels (%.2fx goroutine, bar is 1.05x)", k, ratio)
			}
		}
	}
	fmt.Println("\nexpected: the goroutine scheduler pays the Go runtime's price per")
	fmt.Println("blocked goroutine; work-stealing parks stalled kernels for the cost")
	fmt.Println("of one state word and a wake hook, so its ratio holds flat (<=1.05)")
	fmt.Println("as the kernel count grows two orders of magnitude.")
}

// ablateMonitor measures the paper's low-overhead monitoring claim (A5):
// the same pipeline with monitoring off and at the paper's δ.
func ablateMonitor(corpusMB int) {
	header("A5: Monitoring overhead (TimeTrial-style low-impact claim)")
	data := corpus.Generate(corpus.Spec{Bytes: corpusMB << 20, Seed: 11 + benchSeed})
	type cfg struct {
		name string
		opts []raft.Option
	}
	cases := []cfg{
		{"off", []raft.Option{raft.WithoutMonitor()}},
		{"delta=10us (paper)", nil},
	}
	// Interleave repetitions (rep-major) so host drift hits every config
	// equally, and keep the best rate per config — same discipline as A12.
	const reps = 3
	best := make([]float64, len(cases))
	ticks := make([]uint64, len(cases))
	for rep := 0; rep < reps; rep++ {
		for ci, c := range cases {
			res, err := textsearch.Run(data, textsearch.Config{
				Algo: "horspool", Cores: min(4, runtime.GOMAXPROCS(0)), ExtraExeOpts: c.opts,
			})
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			if r := res.Throughput(len(data)); r > best[ci] {
				best[ci] = r
				ticks[ci] = res.Report.MonitorTicks
			}
		}
	}
	fmt.Printf("%-22s %-10s %-12s\n", "monitor", "GB/s", "ticks")
	for ci, c := range cases {
		fmt.Printf("%-22s %-10s %-12d\n", c.name, gbps(best[ci]), ticks[ci])
	}
	// The A5 bar: at the paper's default δ the monitored pipeline must be
	// within 10% of unmonitored throughput (measured within noise of it;
	// the margin absorbs runner jitter, not instrumentation cost).
	if best[1] < 0.90*best[0] {
		failf("A5: monitored throughput %.3f GB/s is %.1f%% below off (%.3f GB/s), bar is 10%%",
			best[1]/1e9, 100*(1-best[1]/best[0]), best[0]/1e9)
	}
	fmt.Println("\nexpected: monitored throughput within a few percent of off —")
	fmt.Println("the instrumentation hot path is a handful of atomic ops.")
}

// ablateMap compares the latency-priority partitioner against even-spread
// and random placement on a multi-socket, multi-node topology (A6).
func ablateMap() {
	header("A6: Mapping — latency-priority partitioner vs even-spread vs random")
	// A 16-kernel pipeline with a side chain, over 2 local sockets plus
	// two remote (TCP) nodes.
	g := &graph.Graph{}
	for i := 0; i < 16; i++ {
		g.AddNode(fmt.Sprintf("k%d", i), 1)
	}
	for i := 0; i+1 < 12; i++ {
		g.AddEdge(i, i+1, "out", "in", "t", 1)
	}
	g.AddEdge(3, 12, "tap", "in", "t", 1) // side chain
	for i := 12; i+1 < 16; i++ {
		g.AddEdge(i, i+1, "out", "in", "t", 1)
	}
	top := mapper.NewLocal(4, 2)
	top.AddRemoteNode(4)
	top.AddRemoteNode(4)

	smart, err := mapper.Assign(g, top)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%-18s %-14s\n", "strategy", "cut cost")
	fmt.Printf("%-18s %-14v\n", "partitioner", mapper.CutCost(g, top, smart))
	fmt.Printf("%-18s %-14v\n", "even-spread", mapper.CutCost(g, top, mapper.EvenSpread(g, top)))
	var worst, sum time.Duration
	const seeds = 20
	for s := int64(0); s < seeds; s++ {
		c := mapper.CutCost(g, top, mapper.Random(g, top, s))
		sum += c
		if c > worst {
			worst = c
		}
	}
	fmt.Printf("%-18s %-14v (worst %v over %d seeds)\n", "random(avg)", sum/seeds, worst, seeds)
	fmt.Println("\nexpected: the partitioner places the fewest streams across the")
	fmt.Println("TCP and cross-socket boundaries, so its cut cost is smallest.")
}

// ablateModel validates the flow model (A8): run the text search
// sequentially, let raft.Analyze extract pure service rates (blocked time
// excluded) and predict the sequential bottleneck rate, then compare the
// prediction with the measured throughput.
func ablateModel(corpusMB int) {
	header("A8: Flow model — predicted vs measured text-search throughput")
	data := corpus.Generate(corpus.Spec{Bytes: corpusMB << 20, Seed: 13 + benchSeed})
	seq, err := textsearch.Run(data, textsearch.Config{Algo: "ahocorasick", Cores: 1, Analyze: true})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	adv := seq.Advice
	// The source emits one chunk per invocation: bytes/s = rate × chunk.
	predicted := adv.MaxSourceRate * float64(kernels.DefaultChunkSize)
	measured := seq.Throughput(len(data))
	fmt.Printf("measured sequential: %s GB/s\n", gbps(measured))
	fmt.Printf("model prediction:    %s GB/s (bottleneck: %s, util %.2f)\n",
		gbps(predicted), adv.Bottleneck, adv.Utilization[adv.Bottleneck])
	fmt.Printf("measured/predicted:  %.2f\n", measured/predicted)
	fmt.Println("\nadvice for the whole pipeline:")
	fmt.Print(adv)
	fmt.Println("\nexpected: prediction within ~2x of measurement, with the match")
	fmt.Println("kernel named as bottleneck (paper §3/§4.1 flow models); the")
	fmt.Println("replica suggestion is the paper's automatic-parallelization cue.")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ablateSwap demonstrates the paper's dynamic algorithm swapping (§4.2 and
// §5: "RaftLib has the ability to quickly swap out algorithms during
// execution, this was disabled for this benchmark ... Manually changing
// the algorithm RaftLib used to Boyer-Moore-Horspool, the performance
// improved drastically"). A search kernel group starts on the naive
// matcher and is measured against pinned single-algorithm runs.
func ablateSwap(corpusMB int) {
	header("A9: Dynamic algorithm swap — kernel group vs pinned algorithms")
	data := corpus.Generate(corpus.Spec{Bytes: corpusMB << 20, Seed: 15 + benchSeed})
	pattern := []byte(corpus.DefaultPattern)
	chunk := 16 << 10 // small chunks: plenty of invocations to measure with

	run := func(label string, pin string) {
		grp, err := kernels.NewSearchGroup(
			[]string{"naive", "kmp", "rabinkarp", "ahocorasick", "boyermoore", "horspool"}, pattern)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if pin != "" {
			if err := grp.SetFixed(pin); err != nil {
				fmt.Println("error:", err)
				return
			}
		}
		var total int64
		m := raft.NewMap()
		m.MustLink(kernels.NewBytesReader(data, chunk, len(pattern)-1), grp)
		m.MustLink(grp, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total))
		start := time.Now()
		if _, err := m.Exe(); err != nil {
			fmt.Println("error:", err)
			return
		}
		elapsed := time.Since(start)
		fmt.Printf("%-22s %-10s settled=%-12s swaps=%d hits=%d\n",
			label, gbps(float64(len(data))/elapsed.Seconds()), grp.Active(), grp.Swaps(), total)
	}

	fmt.Printf("%-22s %-10s\n", "config", "GB/s")
	run("pinned naive", "naive")
	run("pinned ahocorasick", "ahocorasick")
	run("pinned horspool", "horspool")
	run("dynamic swap", "")
	fmt.Println("\nexpected: the dynamic group converges on the Boyer-Moore family")
	fmt.Println("and lands near the pinned-horspool throughput, far above naive —")
	fmt.Println("the paper's §5 algorithm-swap observation, automated.")
}

// benchItems is the synthetic pipeline length for the batch ablation,
// set from the -items flag.
var benchItems = 2_000_000

// ablateBatch measures the batched stream path (A11): a small-element
// synthetic pipeline (where per-element synchronization dominates, so bulk
// transfer shows its full effect) compared element-wise vs statically
// batched vs adaptively batched, a replicated pass-through stage whose
// split/merge adapters move framed batches, and the Figure 10 text search
// with and without the adaptive batcher. Every configuration's result is
// checked against the element-wise baseline — batching must never change
// what flows, only how many elements move per synchronization.
func ablateBatch(corpusMB int) {
	header("A11: Batched stream path — element-wise vs bulk vs adaptive")
	items := int64(benchItems)
	want := items * (items - 1) / 2
	fmt.Printf("synthetic: generate -> reduce, %d small (int64) elements\n\n", items)
	fmt.Printf("%-18s %-12s %-12s %-10s\n", "config", "elapsed(ms)", "Mitems/s", "linkBatch")

	runSum := func(label string, batch int, opts ...raft.Option) float64 {
		var sum int64
		m := raft.NewMap()
		gen := kernels.NewGenerate(items, func(i int64) int64 { return i })
		red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &sum)
		if batch > 0 {
			gen.SetBatch(batch)
			red.SetBatch(batch)
		}
		m.MustLink(gen, red)
		start := time.Now()
		rep, err := m.Exe(opts...)
		if err != nil {
			fmt.Println("error:", err)
			return 0
		}
		elapsed := time.Since(start)
		linkBatch := 0
		for _, l := range rep.Links {
			linkBatch = l.Batch
		}
		fmt.Printf("%-18s %-12.1f %-12.2f %-10d\n", label,
			float64(elapsed)/float64(time.Millisecond),
			float64(items)/elapsed.Seconds()/1e6, linkBatch)
		if sum != want {
			fmt.Printf("!! sum = %d, want %d (batching changed the stream)\n", sum, want)
		}
		return float64(items) / elapsed.Seconds()
	}

	base := runSum("element-wise", 0)
	bulk := runSum("batched-64", 64)
	adaptive := runSum("adaptive", 0, raft.WithAdaptiveBatching(true))
	if base > 0 {
		fmt.Printf("\nspeedup over element-wise: batched %.2fx, adaptive %.2fx (acceptance: batched >= 2x)\n",
			bulk/base, adaptive/base)
		if bulk/base < 2 {
			failf("A11: batched speedup %.2fx < 2x over element-wise", bulk/base)
		}
	}

	// Replicated pass-through: the split/merge adapters do all the moving,
	// so this isolates the batched mover path (one PopN + one PushN per
	// hop vs element-wise TryPop/Push ping-pong).
	fmt.Printf("\nsplit/merge adapters: generate -> split -> 4x pass -> merge -> reduce, %d elements\n", items)
	fmt.Printf("%-18s %-12s %-12s\n", "config", "elapsed(ms)", "Mitems/s")
	runSplit := func(label string, opts ...raft.Option) {
		var sum int64
		m := raft.NewMap()
		pass := raft.NewLambdaCloneable(func() *raft.LambdaKernel {
			return raft.NewLambda[int64](1, 1, func(k *raft.LambdaKernel) raft.Status {
				v, err := raft.Pop[int64](k.In("0"))
				if err != nil {
					return raft.Stop
				}
				if err := raft.Push(k.Out("0"), v); err != nil {
					return raft.Stop
				}
				return raft.Proceed
			})
		})
		m.MustLink(kernels.NewGenerate(items, func(i int64) int64 { return i }).SetBatch(64), pass,
			raft.AsOutOfOrder())
		m.MustLink(pass, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &sum).SetBatch(64))
		start := time.Now()
		if _, err := m.Exe(append([]raft.Option{raft.WithAutoReplicate(4)}, opts...)...); err != nil {
			fmt.Println("error:", err)
			return
		}
		elapsed := time.Since(start)
		fmt.Printf("%-18s %-12.1f %-12.2f\n", label,
			float64(elapsed)/float64(time.Millisecond), float64(items)/elapsed.Seconds()/1e6)
		if sum != want {
			fmt.Printf("!! sum = %d, want %d\n", sum, want)
		}
	}
	runSplit("static-batch")
	runSplit("adaptive", raft.WithAdaptiveBatching(true))

	// Figure 10 text search: large elements (chunks), so batching should be
	// roughly neutral — the check is that results stay byte-identical.
	data := corpus.Generate(corpus.Spec{Bytes: corpusMB << 20, Seed: 21 + benchSeed})
	cores := min(4, runtime.GOMAXPROCS(0))
	fmt.Printf("\ntext search (Fig. 10 pipeline, %d MiB, %d cores):\n", corpusMB, cores)
	fmt.Printf("%-18s %-10s %-10s\n", "config", "GB/s", "hits")
	var hitsOff, hitsOn int64 = -1, -1
	for _, c := range []struct {
		name  string
		extra []raft.Option
	}{
		{"element-wise", nil},
		{"adaptive", []raft.Option{raft.WithAdaptiveBatching(true)}},
	} {
		res, err := textsearch.Run(data, textsearch.Config{
			Algo: "horspool", Cores: cores, ExtraExeOpts: c.extra,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-18s %-10s %-10d\n", c.name, gbps(res.Throughput(len(data))), res.Hits)
		if c.extra == nil {
			hitsOff = res.Hits
		} else {
			hitsOn = res.Hits
		}
	}
	if hitsOff != hitsOn {
		fmt.Printf("!! hit counts differ: %d vs %d\n", hitsOff, hitsOn)
	} else {
		fmt.Println("results identical with batching enabled.")
	}
	fmt.Println("\nexpected: bulk transfer wins big on small elements (one lock or")
	fmt.Println("atomic publish amortized over the batch). adaptive approaches the")
	fmt.Println("static batch without hand-tuning once the monitor observes a few")
	fmt.Println("windows of contention; on single-core or heavily loaded hosts the")
	fmt.Println("ramp can lag the run, so its speedup is noisier than static.")
	fmt.Println("text search is neutral (large elements) and byte-identical.")
}

// ablateObs measures full-telemetry overhead (A12): the same pipelines run
// bare, with the event bus recording at the default sampling stride, with
// the bus plus an idle Prometheus endpoint listening (the deployment
// shape: always instrumented, scraped occasionally), and with stride-1
// span capture (a span on every timed invocation). Occupancy histograms and
// service timers are unconditionally on — they are part of every
// configuration — so the ablation isolates the cost of the structured
// event bus and of the exporter machinery.
func ablateObs(corpusMB int) {
	header("A12: Telemetry overhead — off vs event bus vs idle exporter vs stride-1")
	items := int64(benchItems)
	want := items * (items - 1) / 2

	type cfg struct {
		name string
		opts func() []raft.Option
	}
	cases := []cfg{
		{"off", func() []raft.Option { return nil }},
		{"trace", func() []raft.Option {
			return []raft.Option{raft.WithTrace(1 << 16)}
		}},
		{"trace+metrics", func() []raft.Option {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Println("error:", err)
				return []raft.Option{raft.WithTrace(1 << 16)}
			}
			return []raft.Option{raft.WithTrace(1 << 16), raft.WithMetricsListener(ln)}
		}},
		{"trace stride=1", func() []raft.Option {
			return []raft.Option{raft.WithTrace(1 << 16), raft.WithTraceStride(1)}
		}},
	}

	// report prints one section's per-config best rates with overhead
	// relative to the first ("off") config.
	report := func(format func(rate float64) string, best []float64) {
		for ci, c := range cases {
			if ci == 0 {
				fmt.Printf("%-16s %-12s %-10s\n", c.name, format(best[0]), "-")
			} else {
				fmt.Printf("%-16s %-12s %-+.1f%%\n", c.name, format(best[ci]), 100*(best[0]/best[ci]-1))
			}
		}
	}
	// measure interleaves repetitions across configs (rep-major, so host
	// drift — GC waves, neighbor load on shared cores — hits every config
	// equally) and keeps the best rate per config.
	measure := func(reps int, run func(opts []raft.Option) float64) []float64 {
		best := make([]float64, len(cases))
		for rep := 0; rep < reps; rep++ {
			for ci, c := range cases {
				if r := run(c.opts()); r > best[ci] {
					best[ci] = r
				}
			}
		}
		return best
	}

	// Primary: the small-element pipeline — per-element synchronization
	// dominates, so any per-invocation telemetry cost is maximally visible.
	// The 3% bar applies to the shipped defaults (trace, trace+metrics);
	// stride=1 shows the price of a span on every timed invocation.
	fmt.Printf("small-element synthetic: generate -> reduce, %d int64 elements, element-wise, best of 7\n\n", items)
	fmt.Printf("%-16s %-12s %-10s\n", "config", "Mitems/s", "overhead")
	runSum := func(batch int) func(opts []raft.Option) float64 {
		return func(opts []raft.Option) float64 {
			var sum int64
			m := raft.NewMap()
			gen := kernels.NewGenerate(items, func(i int64) int64 { return i })
			red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &sum)
			if batch > 0 {
				gen.SetBatch(batch)
				red.SetBatch(batch)
			}
			m.MustLink(gen, red)
			start := time.Now()
			if _, err := m.Exe(opts...); err != nil {
				fmt.Println("error:", err)
				return 0
			}
			elapsed := time.Since(start)
			if sum != want {
				fmt.Printf("!! sum = %d, want %d (telemetry changed the stream)\n", sum, want)
			}
			return float64(items) / elapsed.Seconds()
		}
	}
	mitems := func(r float64) string { return fmt.Sprintf("%.2f", r/1e6) }
	ewise := measure(7, runSum(0))
	report(mitems, ewise)
	fmt.Printf("\nacceptance: trace and trace+metrics (idle exporter) <= 3%% here\n")
	// The A12 bar: the shipped defaults (sampled trace, idle exporter) on
	// the worst-case element-wise pipeline.
	for ci := 1; ci <= 2; ci++ {
		if over := 100 * (ewise[0]/ewise[ci] - 1); over > 3 {
			failf("A12: %s overhead %.1f%% > 3%% on the element-wise pipeline", cases[ci].name, over)
		}
	}

	// Secondary: same pipeline with batch 64 — the throughput configuration
	// (A11); sampling plus batching makes telemetry disappear entirely.
	fmt.Printf("\nbatched synthetic (batch 64), %d elements, best of 5\n\n", items)
	fmt.Printf("%-16s %-12s %-10s\n", "config", "Mitems/s", "overhead")
	report(mitems, measure(5, runSum(64)))

	// Secondary: Figure 10 text search (coarse-grained kernels — chunk-sized
	// invocations bury the per-invocation cost entirely).
	data := corpus.Generate(corpus.Spec{Bytes: corpusMB << 20, Seed: 23 + benchSeed})
	cores := min(4, runtime.GOMAXPROCS(0))
	fmt.Printf("\ntext search (Fig. 10 pipeline, %d MiB, %d cores, best of 5):\n\n", corpusMB, cores)
	fmt.Printf("%-16s %-12s %-10s\n", "config", "GB/s", "overhead")
	report(gbps, measure(5, func(opts []raft.Option) float64 {
		res, err := textsearch.Run(data, textsearch.Config{
			Algo: "horspool", Cores: cores, ExtraExeOpts: opts,
		})
		if err != nil {
			fmt.Println("error:", err)
			return 0
		}
		return res.Throughput(len(data))
	}))
	fmt.Println("\nexpected: spans ride on the invocations the runtime times anyway,")
	fmt.Println("at most one pair per 64 invocations, so trace and the idle")
	fmt.Println("exporter sit within the 3% bar even element-wise; stride=1 pays")
	fmt.Println("two event publishes per timed invocation and is priced here honestly.")
	fmt.Println("batched and chunk-based pipelines bury even stride-1 in the batch.")
}
