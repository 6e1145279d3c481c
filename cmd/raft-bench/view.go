package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"raftlib/internal/corpus"
	"raftlib/internal/oar"
	"raftlib/kernels"
	"raftlib/raft"
)

// ablateView evaluates the zero-copy batch-view plumbing (A15) on the two
// serialization hot paths. The view-vs-staged-copy comparison that decided
// it (2.16x on 4 KiB bridge elements) is a recorded row in EXPERIMENTS; the
// copy arms are gone, and bench/'s bridge workload measures the view sender
// end to end. Two bars remain:
//
//  1. chaos exactness — the sender replays encoded bytes, not borrowed
//     storage, so a killed kernel plus a twice-severed bridge must still
//     deliver the exact chunk multiset: needle count and content checksum
//     equal to the unfaulted run's.
//  2. gateway ingest — BindSourceAppend commits each pooled decode buffer
//     through a write view; every admitted batch must count one saved
//     copy. Throughput is reported for shape.
func ablateView() {
	header("A15: Zero-copy batch views — replay exactness and pooled ingest")

	// --- Part 1: chaos exactness on the view path. ---
	pattern := []byte(corpus.DefaultPattern)
	data := corpus.Generate(corpus.Spec{Bytes: 4 << 20, Seed: 23 + benchSeed})
	const chunkSz = 4096
	var chunks [][]byte
	for off := 0; off < len(data); off += chunkSz {
		end := off + chunkSz
		if end > len(data) {
			end = len(data)
		}
		chunks = append(chunks, data[off:end])
	}
	type grepOut struct {
		Hits int64
		Sum  uint64
	}
	runChaos := func(stream string, chaos bool) (grepOut, *raft.BridgeReport, error) {
		var out grepOut
		node, err := oar.NewNode("a15c", "127.0.0.1:0")
		if err != nil {
			return out, nil, err
		}
		defer node.Close()
		opts := []oar.BridgeOption{
			oar.WithReconnectBackoff(time.Millisecond, 50*time.Millisecond),
			oar.WithPeerTimeout(5 * time.Second),
		}
		if chaos {
			binj := raft.NewFaultInjector()
			binj.SeverBridge(stream, 5)
			binj.SeverBridge(stream, 11)
			opts = append(opts, oar.WithBridgeFault(binj))
		}
		send, recv, err := oar.Bridge[[]byte](node, stream, opts...)
		if err != nil {
			return out, nil, err
		}
		producer := raft.NewMap()
		producer.MustLink(kernels.NewGenerate(int64(len(chunks)), func(i int64) []byte {
			return chunks[i]
		}), send, raft.Cap(64))

		// grep is stateless (count and checksum ride downstream), so the
		// supervised restart cannot lose accumulated state.
		grep := raft.NewLambdaIO[[]byte, grepOut](1, 1, func(k *raft.LambdaKernel) raft.Status {
			chunk, err := raft.Pop[[]byte](k.In("0"))
			if err != nil {
				return raft.Stop
			}
			h := fnv.New64a()
			h.Write(chunk)
			var hits int64
			for i := 0; i+len(pattern) <= len(chunk); i++ {
				if string(chunk[i:i+len(pattern)]) == string(pattern) {
					hits++
				}
			}
			if err := raft.Push(k.Out("0"), grepOut{Hits: hits, Sum: h.Sum64()}); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		})
		grep.SetName("grep")
		fold := raft.NewLambdaIO[grepOut, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
			g, err := raft.Pop[grepOut](k.In("0"))
			if err != nil {
				return raft.Stop
			}
			out.Hits += g.Hits
			out.Sum += g.Sum // wrapping, order-independent
			return raft.Proceed
		})
		fold.SetName("fold")
		consumer := raft.NewMap()
		consumer.MustLink(recv, grep, raft.Cap(64))
		consumer.MustLink(grep, fold)
		exeOpts := []raft.Option{}
		if chaos {
			kinj := raft.NewFaultInjector()
			kinj.KillKernel("grep", 100)
			exeOpts = append(exeOpts,
				raft.WithSupervision(raft.SupervisionPolicy{}),
				raft.WithFaultInjection(kinj))
		}
		var wg sync.WaitGroup
		var errA, errB error
		wg.Add(2)
		go func() { defer wg.Done(); _, errA = producer.Exe() }()
		go func() { defer wg.Done(); _, errB = consumer.Exe() }()
		wg.Wait()
		if errA != nil || errB != nil {
			return out, nil, fmt.Errorf("chaos run: %v / %v", errA, errB)
		}
		br, _ := send.BridgeStats()
		return out, &br, nil
	}
	clean, _, err := runChaos("a15-grep-clean", false)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	faulted, br, err := runChaos("a15-grep-chaos", true)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("chaos exactness (4 MiB corpus, %d chunks over the view-path bridge):\n", len(chunks))
	fmt.Printf("  %-14s %-10s %-18s %-12s %-10s\n", "run", "hits", "checksum", "reconnects", "replayed")
	fmt.Printf("  %-14s %-10d %-18x %-12s %-10s\n", "unfaulted", clean.Hits, clean.Sum, "-", "-")
	fmt.Printf("  %-14s %-10d %-18x %-12d %-10d\n", "kill+sever-x2", faulted.Hits, faulted.Sum, br.Reconnects, br.Replayed)
	if clean.Hits != faulted.Hits || clean.Sum != faulted.Sum {
		failf("A15: chaos run diverged (hits %d vs %d, checksum %x vs %x) — replay leaked or lost borrowed storage",
			clean.Hits, faulted.Hits, clean.Sum, faulted.Sum)
	} else if br.Reconnects == 0 {
		failf("A15: fault plan injected no bridge severs — chaos arm did not exercise replay")
	} else {
		fmt.Printf("  identical output under faults (bar: checksum and count equal)\n")
	}

	// --- Part 2: gateway ingest through pooled write views. ---
	httpc := &http.Client{Timeout: 10 * time.Second}
	post := func(addr, body string) int {
		resp, err := httpc.Post("http://"+addr+"/v1/ingest/lines", "text/plain", strings.NewReader(body))
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const (
		gwBatches = 400
		gwLines   = 64
	)
	body := strings.TrimSuffix(strings.Repeat("one line of ingest payload\n", gwLines), "\n")
	runGateway := func() (elapsed time.Duration, admitted, saved uint64, err error) {
		gw, err := raft.NewGateway(raft.GatewayConfig{})
		if err != nil {
			return 0, 0, 0, err
		}
		src := raft.NewSource[[]byte]("lines")
		err = raft.BindSourceAppend(gw, src, func(p []byte, buf [][]byte) ([][]byte, error) {
			for len(p) > 0 {
				nl := len(p)
				for i, c := range p {
					if c == '\n' {
						nl = i
						break
					}
				}
				buf = append(buf, p[:nl])
				if nl == len(p) {
					break
				}
				p = p[nl+1:]
			}
			return buf, nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		var got uint64
		sink := raft.NewLambdaIO[[]byte, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
			if _, err := raft.Pop[[]byte](k.In("0")); err != nil {
				return raft.Stop
			}
			got++
			return raft.Proceed
		})
		sink.SetName("drain")
		m := raft.NewMap()
		m.MustLink(src, sink, raft.Cap(256))
		done := make(chan error, 1)
		var rep *raft.Report
		go func() {
			var err error
			rep, err = m.Exe(raft.WithGateway(gw), raft.WithDynamicResize(false))
			done <- err
		}()
		deadline := time.Now().Add(20 * time.Second)
		for {
			if post(gw.Addr(), "warmup line") == http.StatusAccepted {
				break
			}
			if time.Now().After(deadline) {
				src.CloseIntake()
				<-done
				return 0, 0, 0, fmt.Errorf("source never wired")
			}
			time.Sleep(2 * time.Millisecond)
		}
		start := time.Now()
		for i := 0; i < gwBatches; i++ {
			st := post(gw.Addr(), body)
			// A 429 is admission doing its job — the ring passed the
			// occupancy line while the sink was descheduled — and a shed
			// batch was not admitted, so it saves no copy: retry it.
			for st == http.StatusTooManyRequests && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				st = post(gw.Addr(), body)
			}
			if st != http.StatusAccepted {
				src.CloseIntake()
				<-done
				return 0, 0, 0, fmt.Errorf("batch %d: status %d", i, st)
			}
		}
		elapsed = time.Since(start)
		src.CloseIntake()
		if err := <-done; err != nil {
			return 0, 0, 0, err
		}
		if rep.Gateway != nil && len(rep.Gateway.Sources) == 1 {
			admitted = rep.Gateway.Sources[0].AdmittedElems
			saved = rep.Gateway.Sources[0].CopiesSaved
		}
		return elapsed, admitted, saved, nil
	}
	poolEl, poolAdm, poolSaved, err := runGateway()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("\ngateway ingest (%d HTTP batches x %d lines):\n", gwBatches, gwLines)
	fmt.Printf("  %-14s %-12s %-12s %-10s %-12s\n", "intake path", "elapsed(ms)", "batches/s", "admitted", "copies saved")
	fmt.Printf("  %-14s %-12.1f %-12.0f %-10d %-12d\n", "pooled-view",
		float64(poolEl)/float64(time.Millisecond), gwBatches/poolEl.Seconds(), poolAdm, poolSaved)
	if wantSaved := uint64(gwBatches + 1); poolSaved != wantSaved { // + the warmup batch
		failf("A15: pooled intake saved %d copies over %d admitted batches, want %d", poolSaved, gwBatches+1, wantSaved)
	} else {
		fmt.Printf("  every pooled admission skipped its staging copy (%d/%d)\n", poolSaved, wantSaved)
	}

	fmt.Println("\nexpected: replaying encoded bytes instead of borrowed storage keeps")
	fmt.Println("chaos output byte-identical, and the gateway's pooled decode buffers")
	fmt.Println("commit through write views, one saved copy per admitted batch, visible")
	fmt.Println("in /v1/stats and the execution report.")
}
