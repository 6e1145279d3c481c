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

// TestGatewaySourceAbort checks that a Source kernel stops (and pending
// injects fail instead of hanging) when its downstream closes the stream.
func TestGatewaySourceAbort(t *testing.T) {
	src := NewSource[int]("nums")
	// One-pop consumer: reads a single element then stops, closing the
	// stream from the consumer side.
	sink := NewLambdaIO[int, int](1, 0, func(k *LambdaKernel) Status {
		if _, err := Pop[int](k.In("0")); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("pop: %v", err)
		}
		return Stop
	})
	m := NewMap()
	if _, err := m.Link(src, sink, Cap(4)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Exe()
	}()
	// First inject is consumed; subsequent ones must fail once the stream
	// closes rather than blocking forever.
	if err := src.inject("", []int{1}, false); err != nil {
		t.Fatalf("first inject: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := src.inject("", []int{2}, false); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("inject kept succeeding after downstream stopped")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Exe hung after downstream abort")
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
