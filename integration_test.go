package raftlib

// Cross-system integration tests: the four Figure 10 systems must agree
// exactly on the ground truth for the same corpus, and the distributed
// runtime must agree with the local one. These are the correctness
// counterparts of the throughput benchmarks in bench_test.go.

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raftlib/internal/apps/textsearch"
	"raftlib/internal/baselines/pargrep"
	"raftlib/internal/baselines/sparklet"
	"raftlib/internal/corpus"
	"raftlib/internal/oar"
	"raftlib/kernels"
	"raftlib/raft"
)

func TestAllFourSystemsAgree(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 4 << 20, Seed: 1234})
	pattern := []byte(corpus.DefaultPattern)
	want := int64(bytes.Count(data, pattern))
	if want == 0 {
		t.Fatal("corpus has no hits")
	}

	if got := pargrep.GrepSerial(data, pattern); int64(got.Hits) != want {
		t.Errorf("grep-serial: %d hits, want %d", got.Hits, want)
	}
	if got := pargrep.Run(data, pattern, pargrep.Config{Jobs: 3, DisableSpawnCost: true}); int64(got.Hits) != want {
		t.Errorf("pargrep: %d hits, want %d", got.Hits, want)
	}
	if got, err := sparklet.TextSearchBM(sparklet.NewContext(3), data, pattern); err != nil || got.Hits != want {
		t.Errorf("sparklet: %d hits (err %v), want %d", got.Hits, err, want)
	}
	for _, algo := range []string{"ahocorasick", "horspool", "boyermoore", "kmp", "rabinkarp"} {
		got, err := textsearch.Run(data, textsearch.Config{Algo: algo, Cores: 3})
		if err != nil || got.Hits != want {
			t.Errorf("raft-%s: %d hits (err %v), want %d", algo, got.Hits, err, want)
		}
	}
}

// TestDistributedSearchAgrees ships corpus chunks to a remote search stage
// over TCP and checks the distributed count equals the local ground truth.
func TestDistributedSearchAgrees(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 1 << 20, Seed: 777})
	pattern := []byte(corpus.DefaultPattern)
	want := int64(bytes.Count(data, pattern))

	node, err := oar.NewNode("worker", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// The worker serves a per-chunk count stage ([]byte in, int64 out).
	oar.RegisterStage[[]byte, int64](node, "count", func(args map[string]string) (raft.Kernel, error) {
		cs, err := kernels.NewCountSearch(args["algo"], []byte(args["pattern"]))
		if err != nil {
			return nil, err
		}
		// Adapt Chunk-based kernel: wrap raw []byte into Chunks locally.
		return raft.NewLambdaIO[[]byte, int64](1, 1, func(k *raft.LambdaKernel) raft.Status {
			b, err := raft.Pop[[]byte](k.In("0"))
			if err != nil {
				return raft.Stop
			}
			_ = cs // the wrapped kernel's matcher does the counting below
			n := int64(cs.CountBytes(b))
			if err := raft.Push(k.Out("0"), n); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		}), nil
	})

	send, recv, err := oar.RemoteStage[[]byte, int64](node.Addr(), "count",
		map[string]string{"algo": "horspool", "pattern": string(pattern)})
	if err != nil {
		t.Fatal(err)
	}

	// Local producer: cut the corpus into non-overlapping whole chunks,
	// scanning boundaries locally (overlap accounting stays local for
	// simplicity; chunks are cut at pattern-safe newline boundaries).
	chunks := cutAtLines(data, 64<<10)
	producer := raft.NewMap()
	src := kernels.NewReadEach(chunks)
	producer.MustLink(src, send)

	var total int64
	consumer := raft.NewMap()
	consumer.MustLink(recv, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total))

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != want {
		t.Fatalf("distributed count = %d, want %d", total, want)
	}
}

// cutAtLines splits data into ~size chunks cut at newline boundaries, so a
// pattern (which never spans lines in the generated corpus) is never
// severed.
func cutAtLines(data []byte, size int) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); {
		end := off + size
		if end >= len(data) {
			end = len(data)
		} else if nl := bytes.LastIndexByte(data[off:end], '\n'); nl > 0 {
			end = off + nl + 1
		}
		out = append(out, data[off:end])
		off = end
	}
	return out
}

// TestChaosTextsearchIdenticalToUndisturbed runs the Figure 9 textsearch
// topology split across a loopback bridge, kills one match kernel and
// severs the bridge mid-run, and checks the disturbed run produces exactly
// the same answer as the undisturbed one (and the ground truth): the
// resilience subsystem's end-to-end exactly-once claim.
func TestChaosTextsearchIdenticalToUndisturbed(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 2 << 20, Seed: 4242})
	pattern := []byte(corpus.DefaultPattern)
	want := int64(bytes.Count(data, pattern))
	if want == 0 {
		t.Fatal("corpus has no hits")
	}

	run := func(chaos bool) int64 {
		t.Helper()
		node, err := oar.NewNode("chaos-search", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()

		var inj *raft.FaultInjector
		var bridgeOpts []oar.BridgeOption
		if chaos {
			inj = raft.NewFaultInjector()
			inj.KillKernel("search[", 5) // one match kernel dies pre-pop
			inj.SeverBridge("hits", 1)   // first frame's connection is cut
			bridgeOpts = append(bridgeOpts,
				oar.WithBridgeFault(inj),
				oar.WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
		}
		send, recv, err := oar.Bridge[int64](node, "hits", bridgeOpts...)
		if err != nil {
			t.Fatal(err)
		}

		// Producer half: filereader -> match (replicated) -> tcp-send.
		producer := raft.NewMap()
		match, err := kernels.NewCountSearch("horspool", pattern)
		if err != nil {
			t.Fatal(err)
		}
		producer.MustLink(kernels.NewBytesReader(data, 8<<10, len(pattern)-1), match, raft.AsOutOfOrder())
		producer.MustLink(match, send)
		// Adaptive batching AND full telemetry on both runs: the disturbed
		// result must stay byte-identical with bulk transfer, batch
		// resizing, and exhaustive (stride-1) event recording engaged.
		prodOpts := []raft.Option{
			raft.WithAutoReplicate(3), raft.WithAdaptiveBatching(true),
			raft.WithTrace(1 << 14), raft.WithTraceStride(1),
		}
		if chaos {
			prodOpts = append(prodOpts,
				raft.WithSupervision(raft.SupervisionPolicy{InitialBackoff: time.Microsecond}),
				raft.WithFaultInjection(inj))
		}

		// Consumer half: tcp-recv -> reduce.
		var total int64
		consumer := raft.NewMap()
		consumer.MustLink(recv, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total))

		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); _, errs[0] = producer.Exe(prodOpts...) }()
		go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("map %d (chaos=%v): %v", i, chaos, err)
			}
		}
		if chaos {
			if inj.Fired("kill") != 1 {
				t.Fatalf("kills fired = %d, want 1", inj.Fired("kill"))
			}
			if inj.Fired("sever") != 1 {
				t.Fatalf("severs fired = %d, want 1", inj.Fired("sever"))
			}
		}
		return total
	}

	undisturbed := run(false)
	disturbed := run(true)
	if undisturbed != want {
		t.Fatalf("undisturbed hits = %d, want %d", undisturbed, want)
	}
	if disturbed != undisturbed {
		t.Fatalf("disturbed hits = %d, undisturbed = %d (chaos run must be identical)", disturbed, undisturbed)
	}
}

// TestChaosTextsearchSmallRingResizeIdentical is the resize chaos
// gauntlet: the disturbed Figure 9 topology above, with every
// producer-side stream starting at capacity 2 and dynamic resize on — so
// the monitor is growing rings (deferred past open port windows and views)
// while a kernel is killed and the bridge severed. The source sends the
// corpus pass after pass until an observer has seen a ring grow (a single
// pass can end before the monitor acts). The answer must equal the ground
// truth for the passes sent, and the report must show the resizes
// happened.
func TestChaosTextsearchSmallRingResizeIdentical(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 2 << 20, Seed: 4242})
	pattern := []byte(corpus.DefaultPattern)
	perPass := int64(bytes.Count(data, pattern))
	if perPass == 0 {
		t.Fatal("corpus has no hits")
	}

	node, err := oar.NewNode("chaos-search-small", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	inj := raft.NewFaultInjector()
	inj.KillKernel("search[", 5)
	inj.SeverBridge("hits-small", 1)
	send, recv, err := oar.Bridge[int64](node, "hits-small",
		oar.WithBridgeFault(inj),
		oar.WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	grown := make(chan struct{})
	var once sync.Once
	observe := func(s raft.LiveStats) {
		for _, l := range s.Links {
			if l.Cap > 2 {
				once.Do(func() { close(grown) })
			}
		}
	}

	producer := raft.NewMap()
	match, err := kernels.NewCountSearch("horspool", pattern)
	if err != nil {
		t.Fatal(err)
	}
	reader := newPassReader(data, 8<<10, len(pattern)-1, grown)
	// Tiny initial capacities force the monitor's write-block grow rule to
	// fire mid-chaos; the replica links inherit Cap(2) from the group's.
	producer.MustLink(reader, match, raft.AsOutOfOrder(), raft.Cap(2))
	producer.MustLink(match, send, raft.Cap(2))
	prodOpts := []raft.Option{
		raft.WithAutoReplicate(3), raft.WithAdaptiveBatching(true),
		raft.WithTrace(1 << 14),
		raft.WithSupervision(raft.SupervisionPolicy{InitialBackoff: time.Microsecond}),
		raft.WithFaultInjection(inj),
		raft.WithDynamicResize(true),
		raft.WithObserver(time.Millisecond, observe),
	}

	var total int64
	consumer := raft.NewMap()
	consumer.MustLink(recv, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total))

	var wg sync.WaitGroup
	errs := make([]error, 2)
	var rep *raft.Report
	wg.Add(2)
	go func() { defer wg.Done(); rep, errs[0] = producer.Exe(prodOpts...) }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	if inj.Fired("kill") != 1 || inj.Fired("sever") != 1 {
		t.Fatalf("faults fired: kill=%d sever=%d, want 1 and 1",
			inj.Fired("kill"), inj.Fired("sever"))
	}
	if want := int64(reader.passes) * perPass; total != want {
		t.Fatalf("chaos hits = %d, want %d over %d passes (must be identical)", total, want, reader.passes)
	}
	var resizes uint64
	for _, l := range rep.Links {
		resizes += l.Resizes
	}
	if resizes == 0 {
		t.Fatalf("no resize on any link despite capacity-2 starts (%d passes)", reader.passes)
	}
	t.Logf("%d passes, %d resizes", reader.passes, resizes)
}

// passReader streams data in the windows kernels.BytesReader cuts, pass
// after pass, until enough closes — an observer's witness that what the
// test asserts on has happened — or 10 s have passed. The chunks of one
// pass do not overlap the next, so every pass finds the hits of one. The
// last chunk of the last pass carries SigEOF; passes counts the passes
// sent (read it after the run).
type passReader struct {
	raft.KernelBase
	data           []byte
	chunk, overlap int
	off, passes    int
	enough         <-chan struct{}
	deadline       time.Time
}

func newPassReader(data []byte, chunk, overlap int, enough <-chan struct{}) *passReader {
	r := &passReader{data: data, chunk: chunk, overlap: overlap, enough: enough, deadline: time.Now().Add(10 * time.Second)}
	r.SetName("filereader")
	raft.AddOutput[kernels.Chunk](r, "out")
	return r
}

func (r *passReader) Run() raft.Status {
	end := min(r.off+r.chunk+r.overlap, len(r.data))
	c := kernels.Chunk{Data: r.data[r.off:end], Off: int64(r.off), Valid: min(r.chunk, len(r.data)-r.off)}
	if r.off > 0 {
		c.Prev = r.data[r.off-1]
	}
	last, final := r.off+r.chunk >= len(r.data), false
	if last {
		select {
		case <-r.enough:
			final = true
		default:
			final = time.Now().After(r.deadline)
		}
	}
	sig := raft.SigNone
	if final {
		sig = raft.SigEOF
	}
	if err := raft.PushSig(r.Out("out"), c, sig); err != nil {
		return raft.Stop
	}
	r.off += r.chunk
	if last {
		r.off = 0
		r.passes++
	}
	if final {
		return raft.Stop
	}
	return raft.Proceed
}

// TestChaosDistributedSumExact kills the supervised, checkpointed reduce
// kernel and severs the bridge mid-run; the distributed sum must still be
// exact.
func TestChaosDistributedSumExact(t *testing.T) {
	node, err := oar.NewNode("chaos-sum", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	const n = 20_000

	inj := raft.NewFaultInjector()
	inj.KillKernel("reduce", 100)
	inj.SeverBridge("numbers", 1)
	inj.SeverBridge("numbers", 3)

	send, recv, err := oar.Bridge[int64](node, "numbers",
		oar.WithBridgeFault(inj),
		oar.WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	producer := raft.NewMap()
	producer.MustLink(kernels.NewGenerate(n, func(i int64) int64 { return i }), send)

	var total int64
	consumer := raft.NewMap()
	consumer.MustLink(recv, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total))

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe(raft.WithAdaptiveBatching(true)) }()
	go func() {
		defer wg.Done()
		_, errs[1] = consumer.Exe(
			raft.WithAdaptiveBatching(true),
			raft.WithTrace(1<<14), raft.WithTraceStride(1),
			raft.WithSupervision(raft.SupervisionPolicy{InitialBackoff: time.Microsecond}),
			raft.WithCheckpointStore(raft.NewMemCheckpointStore()),
			raft.WithFaultInjection(inj))
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	if want := int64(n) * (n - 1) / 2; total != want {
		t.Fatalf("chaos distributed sum = %d, want %d", total, want)
	}
	if inj.Fired("kill") != 1 || inj.Fired("sever") != 2 {
		t.Fatalf("faults fired: kill=%d sever=%d, want 1 and 2", inj.Fired("kill"), inj.Fired("sever"))
	}
}

// TestChaosTextsearchExactAcrossMidRunSplice combines the resilience
// gauntlet with runtime graph rewriting: the distributed textsearch
// topology runs with a kernel kill and a bridge sever in flight, and
// mid-run a relay kernel is spliced into the producer pipeline (then the
// undisturbed variant establishes the baseline). The disturbed, spliced
// run must produce the byte-identical answer — the epoch protocol's
// drain-then-splice guarantee composed with supervision and bridge
// replay.
func TestChaosTextsearchExactAcrossMidRunSplice(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 2 << 20, Seed: 777})
	pattern := []byte(corpus.DefaultPattern)
	want := int64(bytes.Count(data, pattern))
	if want == 0 {
		t.Fatal("corpus has no hits")
	}

	// pacedRelay forwards chunks unchanged, sleeping briefly every few
	// chunks: it keeps the producer half alive long enough for the splice
	// to land mid-run, and counts throughput so the test knows when the
	// stream is hot.
	newRelay := func(name string, count *atomic.Int64, pause time.Duration) *raft.LambdaKernel {
		k := raft.NewLambdaIO[kernels.Chunk, kernels.Chunk](1, 1, func(k *raft.LambdaKernel) raft.Status {
			c, err := raft.Pop[kernels.Chunk](k.In("0"))
			if err != nil {
				return raft.Stop
			}
			if err := raft.Push(k.Out("0"), c); err != nil {
				return raft.Stop
			}
			if n := count.Add(1); pause > 0 && n%8 == 0 {
				time.Sleep(pause)
			}
			return raft.Status(raft.Proceed)
		})
		k.SetName(name)
		return k
	}

	run := func(chaos bool) int64 {
		t.Helper()
		node, err := oar.NewNode("splice-search", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()

		var inj *raft.FaultInjector
		var bridgeOpts []oar.BridgeOption
		if chaos {
			inj = raft.NewFaultInjector()
			inj.KillKernel("search[", 5)
			inj.SeverBridge("hits", 1)
			bridgeOpts = append(bridgeOpts,
				oar.WithBridgeFault(inj),
				oar.WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
		}
		send, recv, err := oar.Bridge[int64](node, "hits", bridgeOpts...)
		if err != nil {
			t.Fatal(err)
		}

		// Producer half: filereader -> relay -> match -> tcp-send. The
		// relay is the splice site.
		var relayed atomic.Int64
		relay := newRelay("relay", &relayed, time.Millisecond)
		producer := raft.NewMap()
		match, err := kernels.NewCountSearch("horspool", pattern)
		if err != nil {
			t.Fatal(err)
		}
		producer.MustLink(kernels.NewBytesReader(data, 2<<10, len(pattern)-1), relay)
		spliceAt := producer.MustLink(relay, match)
		producer.MustLink(match, send)
		prodOpts := []raft.Option{
			raft.WithAdaptiveBatching(true),
			raft.WithTrace(1 << 14), raft.WithTraceStride(1),
		}
		if chaos {
			prodOpts = append(prodOpts,
				raft.WithSupervision(raft.SupervisionPolicy{InitialBackoff: time.Microsecond}),
				raft.WithFaultInjection(inj))
		}

		var total int64
		consumer := raft.NewMap()
		consumer.MustLink(recv, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total))

		var wg sync.WaitGroup
		var consErr error
		wg.Add(1)
		go func() { defer wg.Done(); _, consErr = consumer.Exe() }()

		ex, err := producer.ExeAsync(prodOpts...)
		if err != nil {
			t.Fatal(err)
		}

		// Splice a second relay between the first and the matcher once the
		// stream is demonstrably hot.
		deadline := time.Now().Add(10 * time.Second)
		for relayed.Load() < 64 {
			if time.Now().After(deadline) {
				t.Fatal("stream never became hot")
			}
			time.Sleep(time.Millisecond)
		}
		var relayed2 atomic.Int64
		relay2 := newRelay("relay2", &relayed2, 0)
		tx := ex.Rewriter().Begin()
		if err := tx.RemoveLink(spliceAt); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Link(relay, relay2); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Link(relay2, match); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("mid-run splice (chaos=%v): %v", chaos, err)
		}

		if _, err := ex.Wait(); err != nil {
			t.Fatalf("producer (chaos=%v): %v", chaos, err)
		}
		wg.Wait()
		if consErr != nil {
			t.Fatalf("consumer (chaos=%v): %v", chaos, consErr)
		}
		if chaos {
			if inj.Fired("kill") != 1 {
				t.Fatalf("kills fired = %d, want 1", inj.Fired("kill"))
			}
			if inj.Fired("sever") != 1 {
				t.Fatalf("severs fired = %d, want 1", inj.Fired("sever"))
			}
		}
		if relayed2.Load() == 0 {
			t.Fatalf("spliced relay saw no traffic (chaos=%v)", chaos)
		}
		return total
	}

	undisturbed := run(false)
	disturbed := run(true)
	if undisturbed != want {
		t.Fatalf("undisturbed spliced hits = %d, want %d", undisturbed, want)
	}
	if disturbed != undisturbed {
		t.Fatalf("disturbed spliced hits = %d, undisturbed = %d (must be identical)", disturbed, undisturbed)
	}
}
