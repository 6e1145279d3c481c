package raft

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// postChunks POSTs newline-separated chunks for one tenant and returns
// the response status, Retry-After seconds (0 when absent) and latency.
func postChunks(t *testing.T, url, tenant string, chunks []string) (status int, retryAfter int, latency time.Duration) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/ingest/ingest", strings.NewReader(strings.Join(chunks, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Raft-Tenant", tenant)
	begin := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	latency = time.Since(begin)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		retryAfter, _ = strconv.Atoi(ra)
	}
	return resp.StatusCode, retryAfter, latency
}

// TestGatewayEndToEnd drives a shared text-search pipeline through the
// ingestion gateway with two tenants: a flooding one that the admission
// model must shed (429 + positive Retry-After before the queue saturates)
// and a steady one whose request latency must stay bounded — the
// isolation property the gateway exists for. Every admitted chunk
// contains the needle exactly once, so the pipeline's final count equals
// the gateway's admitted-element total: exactly-once for admitted
// batches, shed batches contribute nothing.
func TestGatewayEndToEnd(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{
		Tenants: map[string]GatewayQuota{
			"steady": {Rate: 50000, Burst: 1000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource[[]byte]("ingest")
	if err := BindSource(gw, src, func(p []byte) ([][]byte, error) {
		if len(p) == 0 {
			return nil, fmt.Errorf("empty payload")
		}
		return bytes.Split(p, []byte("\n")), nil
	}); err != nil {
		t.Fatal(err)
	}

	// match is the slow stage, and the test decides how slow: it holds
	// every chunk until hold is closed. While it is held the pipeline drains
	// nothing, so how fast ports, the HTTP stack or the host are has no say
	// in whether the intake queue reaches the shed line.
	hold := make(chan struct{})
	match := NewLambdaIO[[]byte, int](1, 1, func(k *LambdaKernel) Status {
		chunk, err := Pop[[]byte](k.In("0"))
		if err != nil {
			return Stop
		}
		<-hold
		if err := Push(k.Out("0"), bytes.Count(chunk, []byte("needle"))); err != nil {
			return Stop
		}
		return Proceed
	})
	match.SetName("match")
	var total atomic.Int64
	sink := NewLambdaIO[int, int](1, 0, func(k *LambdaKernel) Status {
		n, err := Pop[int](k.In("0"))
		if err != nil {
			return Stop
		}
		total.Add(int64(n))
		return Proceed
	})
	sink.SetName("sink")

	m := NewMap()
	// A small bounded intake queue makes the occupancy shed rule bite
	// quickly under flood.
	if _, err := m.Link(src, match, Cap(16), MaxCap(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(match, sink); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		defer close(done)
		rep, runErr = m.Exe(WithGateway(gw), WithDynamicResize(false))
	}()

	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	// Wait for Exe to wire the source (503 until then).
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _, _ := postChunks(t, ts.URL, "warmup", []string{"warmup needle chunk"})
		if status == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("source never wired (last status %d)", status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 1, pipeline held: the flood tenant posts batches small enough
	// that an admitted one always fits the intake queue (below the shed line
	// of 12 there is room for 4 more in 16), so no request ever waits for
	// the held stage. The queue fills by 4 per batch and the admission model
	// must shed within a handful of requests — on every run, at any
	// GOMAXPROCS, with or without the race detector.
	var floodSheds, floodRetryOK int64
	small := []string{"needle one", "needle two", "needle three", "needle four"}
	for posts := 0; floodSheds == 0; posts++ {
		if posts == 8 {
			t.Fatal("flood tenant was never shed while the pipeline stood still")
		}
		status, retry, _ := postChunks(t, ts.URL, "flood", small)
		if status == http.StatusTooManyRequests {
			floodSheds++
			if retry > 0 {
				floodRetryOK++
			}
		}
	}
	// The steady tenant arrives at a saturated pipeline. Whether it is shed
	// or admitted (2 chunks still fit) is the admission policy's business;
	// that it is answered promptly instead of parked behind the backlog is
	// the isolation property.
	var latencies []time.Duration
	for i := 0; i < 5; i++ {
		_, _, lat := postChunks(t, ts.URL, "steady", []string{
			"held needle a" + strconv.Itoa(i), "held needle b" + strconv.Itoa(i),
		})
		latencies = append(latencies, lat)
	}

	// Phase 2, pipeline released: large flood batches back-to-back beside
	// the steady tenant's small ones, until the steady tenant is done.
	close(hold)
	stopFlood := make(chan struct{})
	floodDone := make(chan struct{})
	var lateSheds, lateRetryOK atomic.Int64
	go func() {
		defer close(floodDone)
		chunks := make([]string, 50)
		for i := range chunks {
			chunks[i] = "the needle in row " + strconv.Itoa(i)
		}
		for {
			select {
			case <-stopFlood:
				return
			default:
			}
			status, retry, _ := postChunks(t, ts.URL, "flood", chunks)
			if status == http.StatusTooManyRequests {
				lateSheds.Add(1)
				if retry > 0 {
					lateRetryOK.Add(1)
				}
			}
		}
	}()
	// 25 requests, and more only if every one of them landed in a moment the
	// flood had the queue above the shed line.
	steadyAdmitted := 0
	for i := 0; i < 25 || (steadyAdmitted == 0 && i < 1000); i++ {
		status, _, lat := postChunks(t, ts.URL, "steady", []string{
			"steady needle a" + strconv.Itoa(i), "steady needle b" + strconv.Itoa(i),
		})
		latencies = append(latencies, lat)
		if status == http.StatusAccepted {
			steadyAdmitted++
		}
	}
	close(stopFlood)
	<-floodDone
	floodSheds += lateSheds.Load()
	floodRetryOK += lateRetryOK.Load()

	// Graceful shutdown: EOF the intake, let the pipeline drain.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sources/ingest/close", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close intake: %v / %v", err, resp)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Exe did not complete after intake close")
	}
	if runErr != nil {
		t.Fatalf("Exe: %v", runErr)
	}

	// (b) every shed carried a usable Retry-After.
	if floodRetryOK != floodSheds {
		t.Fatalf("%d/%d sheds carried a positive Retry-After", floodRetryOK, floodSheds)
	}

	// (a) the steady tenant's latency stayed bounded: shedding answers
	// fast instead of parking requests behind the flood's backlog.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	if p99 > 500*time.Millisecond {
		t.Fatalf("steady tenant p99 = %v, want bounded under flood", p99)
	}
	if steadyAdmitted == 0 {
		t.Fatal("steady tenant never admitted")
	}

	// (c) exactly-once for admitted batches: every admitted chunk holds
	// the needle exactly once, so the pipeline count must equal the
	// gateway's admitted-element total — nothing lost, nothing duplicated,
	// shed batches invisible.
	if rep.Gateway == nil {
		t.Fatal("report carries no gateway section")
	}
	var admitted uint64
	for _, tn := range rep.Gateway.Tenants {
		admitted += tn.AdmittedElems
	}
	if got := uint64(total.Load()); got != admitted {
		t.Fatalf("pipeline counted %d needles, gateway admitted %d elements", got, admitted)
	}
	if len(rep.Gateway.Sources) != 1 || rep.Gateway.Sources[0].AdmittedElems != admitted {
		t.Fatalf("source stats = %+v, want %d admitted", rep.Gateway.Sources, admitted)
	}
}

// TestGatewaySourceAbort checks that a Source stops accepting batches (and
// an inject waiting for room fails instead of hanging) when its downstream
// closes the stream.
func TestGatewaySourceAbort(t *testing.T) {
	src := NewSource[int]("nums")
	// One-pop consumer: once released, reads a single element then stops,
	// closing the stream from the consumer side.
	release := make(chan struct{})
	sink := NewLambdaIO[int, int](1, 0, func(k *LambdaKernel) Status {
		<-release
		if _, err := Pop[int](k.In("0")); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("pop: %v", err)
		}
		return Stop
	})
	m := NewMap()
	if _, err := m.Link(src, sink, Cap(4), MaxCap(4)); err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExeAsync()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.inject("", []int{1}, false); err != nil {
		t.Fatalf("first inject: %v", err)
	}
	// Eight elements never fit: the ring holds four and the sink pops one.
	pending := make(chan error, 1)
	go func() { pending <- src.inject("", make([]int, 8), false) }()
	close(release)
	select {
	case err := <-pending:
		if err == nil {
			t.Fatal("an inject waiting for room succeeded after downstream stopped")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an inject waiting for room hung after downstream stopped")
	}
	waitRun(t, ex, 5*time.Second)
	if err := src.inject("", []int{2}, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("inject after downstream stopped: %v, want ErrClosed", err)
	}
}

// waitRun waits up to d for the execution to complete, failing the test on
// a hang or a run error.
func waitRun(t *testing.T, ex *Execution, d time.Duration) *Report {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := ex.Wait()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Exe: %v", r.err)
		}
		return r.rep
	case <-time.After(d):
		t.Fatalf("Exe did not complete within %v", d)
		return nil
	}
}

// TestGatewayPooledIngest drives batches through BindSourceAppend and
// verifies the recycle path: decode buffers are leased from the source's
// pool, committed into ring storage through a write view, and recycled —
// one saved intermediate copy per admitted batch, surfaced in the report
// and in /v1/stats. Every element the gateway admits reaches the sink.
func TestGatewayPooledIngest(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource[int64]("ingest")
	if err := BindSourceAppend(gw, src, func(p []byte, buf []int64) ([]int64, error) {
		for _, f := range strings.Fields(string(p)) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, err
			}
			buf = append(buf, v)
		}
		return buf, nil
	}); err != nil {
		t.Fatal(err)
	}
	var sum, count atomic.Int64
	// drained is signalled when the sink has emptied its input. A post the
	// admission model sheds — the intake queue past its occupancy line
	// because the sink was not scheduled — is retried once the queue has
	// drained, so no timing decides whether a batch gets in.
	drained := make(chan struct{}, 1)
	sink := NewLambdaIO[int64, int64](1, 0, func(k *LambdaKernel) Status {
		in := k.In("0")
		v, err := Pop[int64](in)
		if err != nil {
			return Stop
		}
		sum.Add(v)
		count.Add(1)
		if in.Len() == 0 {
			select {
			case drained <- struct{}{}:
			default:
			}
		}
		return Proceed
	})
	sink.SetName("sum")
	m := NewMap()
	if _, err := m.Link(src, sink, Cap(64)); err != nil {
		t.Fatal(err)
	}
	// ExeAsync returns with the source wired and the gateway serving.
	ex, err := m.ExeAsync(WithGateway(gw), WithDynamicResize(false))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	const batches = 50
	for i := 0; i < batches; {
		switch status, _, _ := postChunks(t, ts.URL, "", []string{"1 2 3"}); status {
		case http.StatusAccepted:
			i++
		case http.StatusTooManyRequests:
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Fatalf("batch %d was shed and the intake queue never drained", i)
			}
		default:
			t.Fatalf("batch %d: status %d, want 202 (or 429 while the sink lags)", i, status)
		}
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sources/ingest/close", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close intake: %v / %v", err, resp)
	}
	rep, err := ex.Wait()
	if err != nil {
		t.Fatalf("Exe: %v", err)
	}
	if got := sum.Load(); got != batches*6 {
		t.Fatalf("sink summed %d, want %d", got, batches*6)
	}
	if rep.Gateway == nil || len(rep.Gateway.Sources) != 1 {
		t.Fatalf("report gateway sources = %+v", rep.Gateway)
	}
	if admitted := rep.Gateway.Sources[0].AdmittedElems; admitted != 3*batches || uint64(count.Load()) != admitted {
		t.Fatalf("gateway admitted %d elements, sink received %d, want %d", admitted, count.Load(), 3*batches)
	}
	if got := rep.Gateway.Sources[0].CopiesSaved; got != batches {
		t.Fatalf("CopiesSaved = %d, want %d (every admitted batch on the pooled view path)", got, batches)
	}
}

// TestGatewayCloseIntakeRacesIngest closes a source's intake while several
// tenants are posting batches of distinct element IDs to it, once through
// each binding that decodes into a Source. Every element of a 202 batch
// reaches the sink exactly once and no element of a refused batch does,
// whichever side of the close a request lands on; CopiesSaved counts the
// admitted batches of the pooled binding and stays 0 for the plain one.
func TestGatewayCloseIntakeRacesIngest(t *testing.T) {
	parse := func(p []byte, buf []int64) ([]int64, error) {
		for _, f := range strings.Fields(string(p)) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, err
			}
			buf = append(buf, v)
		}
		return buf, nil
	}
	for _, tc := range []struct {
		name   string
		pooled bool
		bind   func(gw *Gateway, src *Source[int64]) error
	}{
		{"BindSource", false, func(gw *Gateway, src *Source[int64]) error {
			return BindSource(gw, src, func(p []byte) ([]int64, error) { return parse(p, nil) })
		}},
		{"BindSourceAppend", true, func(gw *Gateway, src *Source[int64]) error {
			return BindSourceAppend(gw, src, parse)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, err := NewGateway(GatewayConfig{})
			if err != nil {
				t.Fatal(err)
			}
			src := NewSource[int64]("ingest")
			if err := tc.bind(gw, src); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := map[int64]int{}
			sink := NewLambdaIO[int64, int64](1, 0, func(k *LambdaKernel) Status {
				v, err := Pop[int64](k.In("0"))
				if err != nil {
					return Stop
				}
				mu.Lock()
				got[v]++
				mu.Unlock()
				return Proceed
			})
			m := NewMap()
			if _, err := m.Link(src, sink, Cap(64)); err != nil {
				t.Fatal(err)
			}
			ex, err := m.ExeAsync(WithGateway(gw), WithDynamicResize(false))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(gw.Handler())
			defer ts.Close()

			// Each tenant posts batches until the closed intake answers 503;
			// the intake closes once a quarter of the planned batches are in.
			const tenants, batchLen, closeAfter, maxPosts = 4, 8, 40, 5000
			var admittedBatches atomic.Int64
			admitted := make([][][]int64, tenants)
			refused := make([][][]int64, tenants)
			var wg sync.WaitGroup
			for tn := 0; tn < tenants; tn++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < maxPosts; b++ {
						ids := make([]int64, batchLen)
						fields := make([]string, batchLen)
						for j := range ids {
							ids[j] = int64(tn)<<32 | int64(b*batchLen+j)
							fields[j] = strconv.FormatInt(ids[j], 10)
						}
						req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest/ingest", strings.NewReader(strings.Join(fields, " ")))
						req.Header.Set("X-Raft-Tenant", fmt.Sprintf("t%d", tn))
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Errorf("tenant %d: %v", tn, err)
							return
						}
						resp.Body.Close()
						switch resp.StatusCode {
						case http.StatusAccepted:
							admitted[tn] = append(admitted[tn], ids)
							admittedBatches.Add(1)
						case http.StatusTooManyRequests:
							refused[tn] = append(refused[tn], ids)
						case http.StatusServiceUnavailable:
							refused[tn] = append(refused[tn], ids)
							return
						default:
							t.Errorf("tenant %d batch %d: status %d", tn, b, resp.StatusCode)
							return
						}
					}
					t.Errorf("tenant %d: no 503 after %d posts", tn, maxPosts)
				}()
			}
			deadline := time.Now().Add(10 * time.Second)
			for admittedBatches.Load() < closeAfter && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if n := admittedBatches.Load(); n < closeAfter {
				t.Errorf("only %d batches admitted before the close", n)
			}
			req, _ := http.NewRequest("POST", ts.URL+"/v1/sources/ingest/close", nil)
			if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
				t.Fatalf("close intake: %v / %v", err, resp)
			}
			wg.Wait()
			rep, err := ex.Wait()
			if err != nil {
				t.Fatalf("Exe: %v", err)
			}

			var want, lost, leaked, nRefused int
			for tn := 0; tn < tenants; tn++ {
				for _, ids := range admitted[tn] {
					for _, id := range ids {
						want++
						if got[id] != 1 {
							lost++
						}
					}
				}
				nRefused += len(refused[tn])
				for _, ids := range refused[tn] {
					for _, id := range ids {
						if got[id] != 0 {
							leaked++
						}
					}
				}
			}
			if lost != 0 || leaked != 0 || len(got) != want {
				t.Fatalf("%d admitted elements not delivered exactly once, %d refused elements delivered, sink saw %d distinct of %d admitted", lost, leaked, len(got), want)
			}
			wantSaved := uint64(0)
			if tc.pooled {
				wantSaved = uint64(admittedBatches.Load())
			}
			if rep.Gateway == nil || len(rep.Gateway.Sources) != 1 {
				t.Fatalf("report gateway sources = %+v", rep.Gateway)
			}
			if s := rep.Gateway.Sources[0]; s.CopiesSaved != wantSaved || s.AdmittedElems != uint64(want) {
				t.Fatalf("CopiesSaved %d, AdmittedElems %d; want %d and %d", s.CopiesSaved, s.AdmittedElems, wantSaved, want)
			}
			t.Logf("%d batches admitted, %d refused across %d tenants", admittedBatches.Load(), nRefused, tenants)
		})
	}
}

// TestGatewayInjectBesideBusyWorker checks that an inject returns once its
// batch is in the FIFO, whatever the scheduler is doing: the Source is
// never scheduled, so the serving goroutine commits the batch itself. With
// one work-stealing worker, a gen -> sink pair over a four-slot ring keeps
// the worker busy, waking itself ahead of everything else; an inject issued
// mid-run must still return at once. The pair stops once the inject has
// returned; an inject that waits for the Source to be scheduled waits for
// all n elements.
func TestGatewayInjectBesideBusyWorker(t *testing.T) {
	const n, mid = 2_000_000, 100_000
	reached := make(chan struct{})
	var injected atomic.Bool
	var sent int64
	gen := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		if sent == n || injected.Load() {
			return Stop
		}
		if err := Push(k.Out("0"), sent); err != nil {
			return Stop
		}
		if sent++; sent == mid {
			close(reached)
		}
		return Proceed
	})
	var received atomic.Int64
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		if _, err := Pop[int64](k.In("0")); err != nil {
			return Stop
		}
		received.Add(1)
		return Proceed
	})
	src := NewSource[int64]("nums")
	out := newCollect()
	m := NewMap()
	if _, err := m.Link(gen, sink, Cap(4), MaxCap(4)); err != nil {
		t.Fatal(err)
	}
	m.MustLink(src, out)
	ex, err := m.ExeAsync(WithWorkStealing(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the busy pair never reached the middle of its run")
	}
	begin := time.Now()
	err = src.inject("", []int64{7}, false)
	took := time.Since(begin)
	injected.Store(true)
	src.CloseIntake()
	waitRun(t, ex, 60*time.Second)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if took > 50*time.Millisecond {
		t.Fatalf("inject beside the busy pair took %v, want < 50ms", took)
	}
	if got := received.Load(); got != sent || sent < mid {
		t.Fatalf("busy sink received %d of %d sent (at least %d)", got, sent, mid)
	}
	if got := out.values(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("source's sink received %v, want [7]", got)
	}
	t.Logf("inject beside the busy pair took %v", took)
}

// TestIdleGatewayIsNotADeadlock checks that the freeze scan counts an open
// stream whose producer has finished — a Source, fed from outside the
// graph — as able to make progress: a gateway without traffic for many
// graces is not aborted, and the run still delivers what arrives later.
func TestIdleGatewayIsNotADeadlock(t *testing.T) {
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			const grace = 50 * time.Millisecond
			gw, err := NewGateway(GatewayConfig{})
			if err != nil {
				t.Fatal(err)
			}
			src := NewSource[int64]("ingest")
			if err := BindSource(gw, src, decodeInts); err != nil {
				t.Fatal(err)
			}
			sink := newCollect()
			m := NewMap()
			m.MustLink(src, sink)
			ex, err := m.ExeAsync(append(sched.opts, WithGateway(gw), WithDeadlockDetection(grace))...)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(gw.Handler())
			defer ts.Close()
			select {
			case <-ex.done:
				t.Fatal("the idle run ended without a close")
			case <-time.After(6 * grace):
			}
			if code := postInts(t, ts.URL, "ingest", "t", 1, 2, 3); code != http.StatusAccepted {
				t.Fatalf("post after the idle period: status %d, want 202", code)
			}
			src.CloseIntake()
			rep := waitRun(t, ex, 5*time.Second)
			if got := sink.values(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Fatalf("sink received %v, want [1 2 3]", got)
			}
			if s := rep.Gateway.Sources; len(s) != 1 || s[0].AdmittedElems != 3 {
				t.Fatalf("gateway sources = %+v, want 3 admitted", s)
			}
		})
	}
}

// TestGatewayCloseIntakeBeforeExe checks that an intake closed before the
// run ends the Source's stream as soon as the run binds it.
func TestGatewayCloseIntakeBeforeExe(t *testing.T) {
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			src := NewSource[int64]("nums")
			sink := newCollect()
			m := NewMap()
			m.MustLink(src, sink)
			if err := src.inject("", []int64{1}, false); !errors.Is(err, ErrClosed) {
				t.Fatalf("inject before the run: %v, want ErrClosed", err)
			}
			src.CloseIntake()
			ex, err := m.ExeAsync(sched.opts...)
			if err != nil {
				t.Fatal(err)
			}
			waitRun(t, ex, 5*time.Second)
			if got := sink.values(); len(got) != 0 {
				t.Fatalf("sink received %v from a closed intake", got)
			}
			if err := src.inject("", []int64{2}, false); !errors.Is(err, ErrClosed) {
				t.Fatalf("inject after the run: %v, want ErrClosed", err)
			}
		})
	}
}

// TestGatewaySourceRemovedByRewrite removes a gateway Source, its link and
// its sink in one transaction without closing the intake first: the commit
// goes through, the sink drains what was admitted, the removed source
// refuses later batches, and the rest of the graph runs on.
func TestGatewaySourceRemovedByRewrite(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, ctl := keepAlive(t, gw)
	src := NewSource[int64]("ingest")
	if err := BindSource(gw, src, decodeInts); err != nil {
		t.Fatal(err)
	}
	sink := newCollect()
	l := m.MustLink(src, sink)
	ex, err := m.ExeAsync(WithGateway(gw))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	if code := postInts(t, ts.URL, "ingest", "t", 1, 2, 3); code != http.StatusAccepted {
		t.Fatalf("post: status %d, want 202", code)
	}
	tx := ex.Rewriter().Begin()
	for _, err := range []error{tx.RemoveLink(l), tx.RemoveKernel(src), tx.RemoveKernel(sink)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit removing the source: %v", err)
	}
	if code := postInts(t, ts.URL, "ingest", "t", 4); code != http.StatusServiceUnavailable {
		t.Fatalf("post to the removed source: status %d, want 503", code)
	}
	if code := postInts(t, ts.URL, "ctl", "t", 5); code != http.StatusAccepted {
		t.Fatalf("post to the remaining source: status %d, want 202", code)
	}
	ctl.CloseIntake()
	waitRun(t, ex, 10*time.Second)
	if got := sink.values(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("removed source's sink received %v, want [1 2 3]", got)
	}
}

// TestGatewaySourceSplicedMidRun splices a relay after a live Source —
// RemoveLink(src→sink), Link(src→relay), Link(relay→sink) — while a
// serving goroutine keeps injecting: the commit goes through, and the sink
// sees every element exactly once, in order, first as sent and then
// doubled by the relay.
func TestGatewaySourceSplicedMidRun(t *testing.T) {
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			const n, batch = 20_000, 8
			src := NewSource[int64]("nums")
			sink := newPacedCollect(time.Millisecond)
			m := NewMap()
			l0 := m.MustLink(src, sink)
			ex, err := m.ExeAsync(append(sched.opts, WithDynamicResize(false))...)
			if err != nil {
				t.Fatal(err)
			}
			injected := make(chan error, 1)
			go func() {
				vals := make([]int64, batch)
				for i := int64(0); i < n; i += batch {
					for j := range vals {
						vals[j] = i + int64(j)
					}
					if err := src.inject("", vals, false); err != nil {
						injected <- fmt.Errorf("inject at %d: %w", i, err)
						return
					}
				}
				src.CloseIntake()
				injected <- nil
			}()
			waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 500 })

			tx := ex.Rewriter().Begin()
			if err := tx.RemoveLink(l0); err != nil {
				t.Fatal(err)
			}
			relay := newWork()
			if _, err := tx.Link(src, relay); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Link(relay, sink); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit splicing after the source: %v", err)
			}
			if err := <-injected; err != nil {
				t.Fatal(err)
			}
			waitRun(t, ex, 30*time.Second)
			got := sink.values()
			if len(got) != n {
				t.Fatalf("sink received %d values, want %d", len(got), n)
			}
			id := func(i int64) int64 { return i }
			dbl := func(i int64) int64 { return 2 * i }
			if cuts := checkSegments(t, got, id, dbl); len(cuts) != 1 || cuts[0] == 0 || cuts[0] == n {
				t.Fatalf("segment cuts = %v, want one cut inside the run", cuts)
			}
		})
	}
}

// TestGatewayCloseIntakeBesideWaitingInject closes the intake while an
// inject waits for room on a full Cap(4)/MaxCap(4) link: the close returns
// at once, the waiting batch still lands whole, later batches are refused,
// and the stream then ends.
func TestGatewayCloseIntakeBesideWaitingInject(t *testing.T) {
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			gate := make(chan struct{})
			var got []int64
			sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
				<-gate
				v, err := Pop[int64](k.In("0"))
				if err != nil {
					return Stop
				}
				got = append(got, v)
				return Proceed
			})
			src := NewSource[int64]("nums")
			m := NewMap()
			if _, err := m.Link(src, sink, Cap(4), MaxCap(4)); err != nil {
				t.Fatal(err)
			}
			ex, err := m.ExeAsync(sched.opts...)
			if err != nil {
				t.Fatal(err)
			}
			batch := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
			injected := make(chan error, 1)
			go func() { injected <- src.inject("", batch, false) }()
			ring := ringOf[int64](src.Out("out"))
			waitFor(t, "a full link", func() bool { return ring.Len() == 4 })

			closed := make(chan struct{})
			go func() {
				src.CloseIntake()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("CloseIntake waited for the blocked inject")
			}
			close(gate)
			if err := <-injected; err != nil {
				t.Fatalf("the waiting inject: %v, want it to land", err)
			}
			if err := src.inject("", []int64{12}, false); !errors.Is(err, ErrClosed) {
				t.Fatalf("inject after the close: %v, want ErrClosed", err)
			}
			waitRun(t, ex, 10*time.Second)
			if len(got) != len(batch) {
				t.Fatalf("sink received %v, want %v", got, batch)
			}
			for i, v := range got {
				if v != batch[i] {
					t.Fatalf("sink received %v, want %v", got, batch)
				}
			}
		})
	}
}
