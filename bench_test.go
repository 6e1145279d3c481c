package raftlib

// One testing.B benchmark per table/figure of the paper's evaluation plus
// the DESIGN.md ablations. `go test -bench=. -benchmem` regenerates the
// whole set at reduced scale; cmd/raft-bench prints the full tables.
//
// Naming: BenchmarkTable1*, BenchmarkFig4*, BenchmarkFig10* map directly
// to the paper's artifacts; BenchmarkAblation* map to DESIGN.md A1–A8.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"raftlib/internal/apps/matmul"
	"raftlib/internal/apps/textsearch"
	"raftlib/internal/baselines/pargrep"
	"raftlib/internal/baselines/sparklet"
	"raftlib/internal/corpus"
	"raftlib/internal/graph"
	"raftlib/internal/mapper"
	"raftlib/internal/oar"
	"raftlib/internal/qmodel"
	"raftlib/kernels"
	"raftlib/raft"
)

// benchCorpusMB scales the text-search corpus (override with
// RAFTLIB_BENCH_CORPUS_MB).
func benchCorpusMB() int {
	if s := os.Getenv("RAFTLIB_BENCH_CORPUS_MB"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 16
}

var (
	corpusOnce sync.Once
	corpusData []byte
)

func benchCorpus() []byte {
	corpusOnce.Do(func() {
		corpusData = corpus.Generate(corpus.Spec{Bytes: benchCorpusMB() << 20, Seed: 2015})
	})
	return corpusData
}

func coreCounts() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for c := 1; c < max; c *= 2 {
		out = append(out, c)
	}
	return append(out, max)
}

// BenchmarkTable1Hardware reports the host configuration as benchmark
// metrics (cores, GOMAXPROCS), standing in for the paper's Table 1 row.
func BenchmarkTable1Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = runtime.NumCPU()
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkFig4QueueSize sweeps the stream allocation of the streaming
// matrix multiply (paper Figure 4): execution time vs queue size.
func BenchmarkFig4QueueSize(b *testing.B) {
	a, m2 := matmul.NewRandom(1), matmul.NewRandom(2)
	for _, size := range []int{2 << 10, 32 << 10, 512 << 10, 8 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := matmul.Run(a, m2, matmul.Config{QueueCapBytes: size, Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.C
			}
		})
	}
}

// BenchmarkFig10TextSearch measures GB/s for each of the paper's four
// systems across core counts (paper Figure 10). Throughput appears as the
// standard MB/s column via b.SetBytes.
func BenchmarkFig10TextSearch(b *testing.B) {
	data := benchCorpus()
	pattern := []byte(corpus.DefaultPattern)

	b.Run("grep-serial", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if r := pargrep.GrepSerial(data, pattern); r.Hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
	for _, cores := range coreCounts() {
		b.Run(fmt.Sprintf("pargrep/cores=%d", cores), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if r := pargrep.Run(data, pattern, pargrep.Config{Jobs: cores}); r.Hits == 0 {
					b.Fatal("no hits")
				}
			}
		})
		b.Run(fmt.Sprintf("sparklet-bm/cores=%d", cores), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r, err := sparklet.TextSearchBM(sparklet.NewContext(cores), data, pattern)
				if err != nil || r.Hits == 0 {
					b.Fatalf("hits=%d err=%v", r.Hits, err)
				}
			}
		})
		for _, algo := range []string{"ahocorasick", "horspool"} {
			b.Run(fmt.Sprintf("raft-%s/cores=%d", algo, cores), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					r, err := textsearch.Run(data, textsearch.Config{Algo: algo, Cores: cores})
					if err != nil || r.Hits == 0 {
						b.Fatalf("hits=%d err=%v", r.Hits, err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationSplitPolicy (A1) compares the two split strategies
// under a skewed per-item cost.
func BenchmarkAblationSplitPolicy(b *testing.B) {
	const items = 20_000
	for _, policy := range []raft.SplitPolicy{raft.RoundRobin, raft.LeastUtilized} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := raft.NewMap()
				worker := raft.NewLambdaCloneable(func() *raft.LambdaKernel {
					return raft.NewLambda[int64](1, 1, func(k *raft.LambdaKernel) raft.Status {
						v, err := raft.Pop[int64](k.In("0"))
						if err != nil {
							return raft.Stop
						}
						spin := 100
						if v%16 == 0 {
							spin = 5000
						}
						s := int64(0)
						for j := 0; j < spin; j++ {
							s += int64(j)
						}
						if err := raft.Push(k.Out("0"), v+s*0); err != nil {
							return raft.Stop
						}
						return raft.Proceed
					})
				})
				var out []int64
				m.MustLink(kernels.NewGenerate(items, func(i int64) int64 { return i }), worker,
					raft.AsOutOfOrder(), raft.Cap(8), raft.MaxCap(8))
				m.MustLink(worker, kernels.NewWriteEach(&out))
				if _, err := m.Exe(raft.WithAutoReplicate(4), raft.WithSplitPolicy(policy)); err != nil {
					b.Fatal(err)
				}
				if len(out) != items {
					b.Fatalf("lost items: %d", len(out))
				}
			}
		})
	}
}

// BenchmarkAblationResize (A2) compares fixed-small, fixed-large and
// dynamic queues on a simple pipeline.
func BenchmarkAblationResize(b *testing.B) {
	const items = 100_000
	cases := []struct {
		name string
		link []raft.LinkOption
		opts []raft.Option
	}{
		{"fixed-4", []raft.LinkOption{raft.Cap(4), raft.MaxCap(4)}, []raft.Option{raft.WithDynamicResize(false)}},
		{"fixed-4096", []raft.LinkOption{raft.Cap(4096), raft.MaxCap(4096)}, []raft.Option{raft.WithDynamicResize(false)}},
		{"dynamic-from-4", []raft.LinkOption{raft.Cap(4)}, []raft.Option{raft.WithDynamicResize(true)}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := raft.NewMap()
				var total int64
				red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total)
				m.MustLink(kernels.NewGenerate(items, func(i int64) int64 { return i }), red, c.link...)
				if _, err := m.Exe(c.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClone (A3) measures the text search without
// replication, with static replication, and with monitor auto-scaling.
func BenchmarkAblationClone(b *testing.B) {
	data := benchCorpus()
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		name  string
		cores int
		extra []raft.Option
	}{
		{"off", 1, nil},
		{"static", max, nil},
		{"autoscale", max, []raft.Option{raft.WithAutoScale(true)}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r, err := textsearch.Run(data, textsearch.Config{
					Algo: "ahocorasick", Cores: c.cores, ExtraExeOpts: c.extra,
				})
				if err != nil || r.Hits == 0 {
					b.Fatalf("hits=%d err=%v", r.Hits, err)
				}
			}
		})
	}
}

// BenchmarkAblationScheduler (A4) compares the two schedulers on the same
// workload.
func BenchmarkAblationScheduler(b *testing.B) {
	data := benchCorpus()
	cases := []struct {
		name string
		opts []raft.Option
	}{
		{"goroutine", nil},
		{"worksteal", []raft.Option{raft.WithWorkStealing(0)}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r, err := textsearch.Run(data, textsearch.Config{
					Algo: "horspool", Cores: 2, ExtraExeOpts: c.opts,
				})
				if err != nil || r.Hits == 0 {
					b.Fatalf("hits=%d err=%v", r.Hits, err)
				}
			}
		})
	}
}

// BenchmarkAblationMonitorOverhead (A5) quantifies the monitoring cost:
// identical pipeline with the monitor off and at the paper's δ.
func BenchmarkAblationMonitorOverhead(b *testing.B) {
	data := benchCorpus()
	cases := []struct {
		name string
		opts []raft.Option
	}{
		{"off", []raft.Option{raft.WithoutMonitor()}},
		{"delta-10us", nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r, err := textsearch.Run(data, textsearch.Config{
					Algo: "horspool", Cores: 2, ExtraExeOpts: c.opts,
				})
				if err != nil || r.Hits == 0 {
					b.Fatalf("hits=%d err=%v", r.Hits, err)
				}
			}
		})
	}
}

// BenchmarkAblationTCPBridge (A7) compares an in-process stream with the
// same stream tunneled over a loopback TCP bridge.
func BenchmarkAblationTCPBridge(b *testing.B) {
	const items = 100_000
	b.Run("in-process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := raft.NewMap()
			var total int64
			red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total)
			m.MustLink(kernels.NewGenerate(items, func(i int64) int64 { return i }), red)
			if _, err := m.Exe(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loopback-tcp", func(b *testing.B) {
		node, err := oar.NewNode("bench", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		for i := 0; i < b.N; i++ {
			send, recv, err := oar.Bridge[int64](node, fmt.Sprintf("s%d", i))
			if err != nil {
				b.Fatal(err)
			}
			producer := raft.NewMap()
			producer.MustLink(kernels.NewGenerate(items, func(i int64) int64 { return i }), send)
			consumer := raft.NewMap()
			var total int64
			red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total)
			consumer.MustLink(recv, red)
			var wg sync.WaitGroup
			wg.Add(2)
			var e1, e2 error
			go func() { defer wg.Done(); _, e1 = producer.Exe() }()
			go func() { defer wg.Done(); _, e2 = consumer.Exe() }()
			wg.Wait()
			if e1 != nil || e2 != nil {
				b.Fatal(e1, e2)
			}
		}
	})
}

// BenchmarkAblationModel (A8) times the flow-model solve itself — the
// point of the paper's analytic path is that predictions are cheap enough
// to use during execution.
func BenchmarkAblationModel(b *testing.B) {
	net := &qmodel.Network{
		Kernels: []qmodel.KernelModel{
			{Name: "reader", ServiceRate: 5000, Replicas: 1, Gain: 1},
			{Name: "match", ServiceRate: 900, Replicas: 4, Gain: 0.001},
			{Name: "reduce", ServiceRate: 100000, Replicas: 1, Gain: 1},
		},
		Edges: []qmodel.EdgeModel{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
	}
	for i := 0; i < b.N; i++ {
		if _, err := net.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMapperAssign (A6) times the latency-priority
// partitioner on a 64-kernel pipeline over a two-socket + remote-node
// topology; its quality versus random placement is asserted in the mapper
// package tests and printed by raft-bench -ablate map. The paper claims
// the algorithm is fast, not optimal — this measures the "fast".
func BenchmarkAblationMapperAssign(b *testing.B) {
	g := &graph.Graph{}
	for i := 0; i < 64; i++ {
		g.AddNode("k", 1)
	}
	for i := 0; i+1 < 64; i++ {
		g.AddEdge(i, i+1, "out", "in", "t", 1)
	}
	top := mapper.NewLocal(16, 2)
	top.AddRemoteNode(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Assign(g, top); err != nil {
			b.Fatal(err)
		}
	}
}
