package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raftlib/internal/gateway"
)

// decodeInts parses a newline-separated int64 batch, the wire format the
// template tests post through the gateway.
func decodeInts(p []byte) ([]int64, error) {
	var out []int64
	for _, line := range strings.Split(strings.TrimSpace(string(p)), "\n") {
		if line == "" {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("empty batch")
	}
	return out, nil
}

// postInts POSTs one batch for a tenant to a template's ingest URL and
// returns the HTTP status.
func postInts(t *testing.T, base, source, tenant string, vals ...int64) int {
	t.Helper()
	lines := make([]string, len(vals))
	for i, v := range vals {
		lines[i] = strconv.FormatInt(v, 10)
	}
	req, err := http.NewRequest("POST", base+"/v1/ingest/"+source, strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Raft-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// keepAlive builds a map holding one gateway-fed control source so the
// execution stays alive (and rewritable) until the test closes the
// intake. Returns the map and the source.
func keepAlive(t *testing.T, gw *gateway.Server) (*Map, *Source[int64]) {
	t.Helper()
	ctl := NewSource[int64]("ctl")
	if err := BindSource(gw, ctl, decodeInts); err != nil {
		t.Fatal(err)
	}
	m := NewMap()
	m.MustLink(ctl, newCollect())
	return m, ctl
}

// TestTemplatePerTenantInstantiation registers a subgraph template and
// drives it purely through gateway traffic: two tenants' pipelines must
// materialize on first request (requests racing the instantiation block
// and then succeed — none may be dropped), stay isolated, and be
// reaped out of the graph on demand with their lifecycle visible in the
// report.
func TestTemplatePerTenantInstantiation(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, ctl := keepAlive(t, gw)

	ex, err := m.ExeAsync(WithGateway(gw))
	if err != nil {
		t.Fatal(err)
	}
	rw := ex.Rewriter()

	var mu sync.Mutex
	sinks := map[string]*pacedCollect{}
	var builds atomic.Int64
	err = rw.RegisterTemplate(&SubgraphTemplate{
		Name: "double",
		Build: func(b *InstanceBuilder, key string) error {
			builds.Add(1)
			src := NewSource[int64]("in")
			BindInstanceSource(b, src, decodeInts)
			work := newWork()
			sink := newPacedCollect(0)
			b.MustLink(src, work)
			b.MustLink(work, sink)
			mu.Lock()
			sinks[key] = sink
			mu.Unlock()
			// Widen the instantiation window so concurrent first requests
			// really do race the build.
			time.Sleep(30 * time.Millisecond)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	// Unknown source with no template behind it stays a 404.
	if code := postInts(t, ts.URL, "nosuch", "alpha", 1); code != http.StatusNotFound {
		t.Fatalf("unknown source returned %d, want 404", code)
	}

	// Two tenants, several concurrent posters each, firing immediately:
	// the first request per tenant instantiates, the rest arrive
	// mid-instantiation and must block, not fail.
	const posters, posts = 3, 5
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for _, tenant := range []string{"alpha", "beta"} {
		for g := 0; g < posters; g++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				for p := 0; p < posts; p++ {
					if code := postInts(t, ts.URL, "double", tenant, 1, 2, 3); code != http.StatusAccepted {
						rejected.Add(1)
					}
				}
			}(tenant)
		}
	}
	wg.Wait()
	if n := rejected.Load(); n != 0 {
		t.Fatalf("%d posts rejected during/after instantiation, want 0", n)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("template built %d times, want once per tenant", n)
	}

	const wantPerTenant = posters * posts * 3 // elements per tenant
	for _, tenant := range []string{"alpha", "beta"} {
		mu.Lock()
		sink := sinks[tenant]
		mu.Unlock()
		if sink == nil {
			t.Fatalf("tenant %s never built", tenant)
		}
		waitFor(t, tenant+" drain", func() bool { return sink.count() >= wantPerTenant })
		var sum int64
		for _, v := range sink.values() {
			sum += v
		}
		if sink.count() != wantPerTenant || sum != posters*posts*int64(2*(1+2+3)) {
			t.Fatalf("tenant %s: %d elements sum %d, want %d elements sum %d",
				tenant, sink.count(), sum, wantPerTenant, posters*posts*12)
		}
	}

	// Scale to zero on demand; the bindings must leave the gateway.
	for _, tenant := range []string{"alpha", "beta"} {
		if err := rw.Reap("double", tenant); err != nil {
			t.Fatalf("reap %s: %v", tenant, err)
		}
	}

	ctl.CloseIntake()
	rep, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Every instance kernel is namespaced "double@tenant/..." and carries
	// join and leave stamps.
	instKernels := 0
	for _, kr := range rep.Kernels {
		if !strings.HasPrefix(kr.Name, "double@") {
			continue
		}
		instKernels++
		if kr.JoinedAt <= 0 || kr.LeftAt <= kr.JoinedAt {
			t.Fatalf("instance kernel %q stamps: joined %v left %v", kr.Name, kr.JoinedAt, kr.LeftAt)
		}
	}
	if instKernels != 6 { // 2 tenants x (source, work, sink)
		t.Fatalf("report shows %d instance kernels, want 6", instKernels)
	}
}

// ckptAccum sums its input and checkpoints the running total, so a
// reaped instance's state survives scale-to-zero.
type ckptAccum struct {
	KernelBase
	sum atomic.Int64
}

func newCkptAccum() *ckptAccum {
	k := &ckptAccum{}
	k.SetName("acc")
	AddInput[int64](k, "in")
	return k
}

func (a *ckptAccum) Run() Status {
	v, err := Pop[int64](a.In("in"))
	if err != nil {
		return Stop
	}
	a.sum.Add(v)
	return Proceed
}

func (a *ckptAccum) Snapshot() ([]byte, error) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(a.sum.Load()))
	return b, nil
}

func (a *ckptAccum) Restore(snap []byte) error {
	if len(snap) != 8 {
		return fmt.Errorf("bad snapshot length %d", len(snap))
	}
	a.sum.Store(int64(binary.LittleEndian.Uint64(snap)))
	return nil
}

// TestTemplateReapRestoresState scales an instance to zero and back: the
// reap must checkpoint the instance's stateful kernel, and the next
// instantiation of the same key must resume from that snapshot (the
// namespaced kernel name is the stable checkpoint key).
func TestTemplateReapRestoresState(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, ctl := keepAlive(t, gw)
	ex, err := m.ExeAsync(WithGateway(gw))
	if err != nil {
		t.Fatal(err)
	}
	rw := ex.Rewriter()

	var mu sync.Mutex
	var accs []*ckptAccum
	err = rw.RegisterTemplate(&SubgraphTemplate{
		Name: "counter",
		Build: func(b *InstanceBuilder, key string) error {
			src := NewSource[int64]("in")
			BindInstanceSource(b, src, decodeInts)
			acc := newCkptAccum()
			b.MustLink(src, acc)
			mu.Lock()
			accs = append(accs, acc)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	if code := postInts(t, ts.URL, "counter", "t1", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10); code != http.StatusAccepted {
		t.Fatalf("first post returned %d", code)
	}
	mu.Lock()
	first := accs[0]
	mu.Unlock()
	waitFor(t, "first instance sum", func() bool { return first.sum.Load() == 55 })

	if err := rw.Reap("counter", "t1"); err != nil {
		t.Fatalf("reap: %v", err)
	}

	// Traffic for the reaped key re-instantiates; the new instance must
	// pick up where the snapshot left off.
	if code := postInts(t, ts.URL, "counter", "t1", 5); code != http.StatusAccepted {
		t.Fatalf("post after reap returned %d", code)
	}
	mu.Lock()
	if len(accs) != 2 {
		mu.Unlock()
		t.Fatalf("template built %d times, want 2", len(accs))
	}
	second := accs[1]
	mu.Unlock()
	if second == first {
		t.Fatal("re-instantiation reused the reaped kernel")
	}
	waitFor(t, "restored sum", func() bool { return second.sum.Load() == 60 })

	if err := rw.Reap("counter", "t1"); err != nil {
		t.Fatalf("second reap: %v", err)
	}
	ctl.CloseIntake()
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
}

// duplicateSeries returns the series of a Prometheus text exposition that
// occur more than once (a scraper rejects the whole exposition for one).
func duplicateSeries(body string) []string {
	seen := map[string]bool{}
	var dups []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seen[series] {
			dups = append(dups, series)
		}
		seen[series] = true
	}
	return dups
}

// TestTemplateReinstantiationKeepsSeriesUnique reaps a template instance
// and brings it back under the same key. The new instance reuses the
// reaped one's kernel and link names, so /metrics and LiveStats must list
// only the live graph: the instance once, every series name once.
func TestTemplateReinstantiationKeepsSeriesUnique(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last LiveStats
	var accs []*ckptAccum
	m, ctl := keepAlive(t, gw)
	ex, err := m.ExeAsync(WithGateway(gw), WithMetricsListener(ln),
		WithObserver(time.Millisecond, func(ls LiveStats) {
			mu.Lock()
			last = ls
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	rw := ex.Rewriter()
	err = rw.RegisterTemplate(&SubgraphTemplate{
		Name: "series",
		Build: func(b *InstanceBuilder, key string) error {
			src := NewSource[int64]("in")
			BindInstanceSource(b, src, decodeInts)
			acc := newCkptAccum()
			b.MustLink(src, acc)
			mu.Lock()
			accs = append(accs, acc)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	for round, want := range []int64{3, 6} { // the second instance resumes at 3
		if code := postInts(t, ts.URL, "series", "t1", 1, 2); code != http.StatusAccepted {
			t.Fatalf("round %d: post returned %d", round, code)
		}
		mu.Lock()
		acc := accs[len(accs)-1]
		mu.Unlock()
		waitFor(t, "instance sum", func() bool { return acc.sum.Load() == want })
		if round == 0 {
			if err := rw.Reap("series", "t1"); err != nil {
				t.Fatalf("reap: %v", err)
			}
		}
	}
	mu.Lock()
	builds := len(accs)
	mu.Unlock()
	if builds != 2 {
		t.Fatalf("template built %d times, want 2", builds)
	}

	body, err := pollMetricsOnce(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if dups := duplicateSeries(body); len(dups) > 0 {
		t.Fatalf("scrape after re-instantiation repeats %d series, e.g. %s", len(dups), dups[0])
	}
	if n := strings.Count(body, `raft_kernel_runs_total{kernel="series@t1/acc"}`); n != 1 {
		t.Fatalf("scrape lists the instance kernel %d times, want 1", n)
	}
	waitFor(t, "a LiveStats snapshot holding the new instance", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range last.Kernels {
			if k.Name == "series@t1/acc" {
				return true
			}
		}
		return false
	})
	mu.Lock()
	names := map[string]bool{}
	for _, l := range last.Links {
		if names["link "+l.Name] {
			t.Errorf("LiveStats lists link %q twice", l.Name)
		}
		names["link "+l.Name] = true
	}
	for _, k := range last.Kernels {
		if names["kernel "+k.Name] {
			t.Errorf("LiveStats lists kernel %q twice", k.Name)
		}
		names["kernel "+k.Name] = true
	}
	mu.Unlock()

	if err := rw.Reap("series", "t1"); err != nil {
		t.Fatalf("final reap: %v", err)
	}
	ctl.CloseIntake()
	rep, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The report keeps the run's history: both instances, with stamps.
	instKernels := 0
	for _, kr := range rep.Kernels {
		if kr.Name == "series@t1/acc" {
			instKernels++
		}
	}
	if instKernels != 2 {
		t.Fatalf("report shows the instance kernel %d times, want 2", instKernels)
	}
}

// TestTemplateCorruptSnapshotFailsInit: a template instance whose stored
// snapshot its kernel rejects joins the graph like any other, and the
// rejected restore fails that kernel's initialization. The error names the
// kernel and the restore and comes back from Wait.
func TestTemplateCorruptSnapshotFailsInit(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, ctl := keepAlive(t, gw)
	ex, err := m.ExeAsync(WithGateway(gw))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.cfg.ckptStore.Save("corrupt@t1/acc", []byte{1}); err != nil {
		t.Fatal(err)
	}
	rw := ex.Rewriter()
	err = rw.RegisterTemplate(&SubgraphTemplate{
		Name: "corrupt",
		Build: func(b *InstanceBuilder, key string) error {
			src := NewSource[int64]("in")
			BindInstanceSource(b, src, decodeInts)
			b.MustLink(src, newCkptAccum())
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	// The instantiating post is admitted, or refused as unavailable when the
	// kernel has already failed and closed the intake link.
	if code := postInts(t, ts.URL, "corrupt", "t1", 1); code != http.StatusAccepted && code != http.StatusServiceUnavailable {
		t.Fatalf("post returned %d", code)
	}
	waitFor(t, "the instance kernel to fail", func() bool {
		_, actors := ex.reg.live()
		for _, ae := range actors {
			if ae.a.Name == "corrupt@t1/acc" {
				return ae.a.Finished.Load()
			}
		}
		return false
	})
	if err := rw.Reap("corrupt", "t1"); err != nil {
		t.Fatalf("reap: %v", err)
	}
	ctl.CloseIntake()
	_, err = ex.Wait()
	if err == nil || !strings.Contains(err.Error(), `kernel "corrupt@t1/acc" init: checkpoint restore: bad snapshot length 1`) {
		t.Fatalf("Wait returned %v, want the instance kernel's failed restore", err)
	}
}

// TestTemplateIdleReap lets the scale-to-zero timer do the reaping: an
// instance with no traffic past its Idle window must leave the graph on
// its own, and later traffic must bring it back with state restored.
func TestTemplateIdleReap(t *testing.T) {
	gw, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, ctl := keepAlive(t, gw)
	ex, err := m.ExeAsync(WithGateway(gw))
	if err != nil {
		t.Fatal(err)
	}
	rw := ex.Rewriter()

	var mu sync.Mutex
	var accs []*ckptAccum
	err = rw.RegisterTemplate(&SubgraphTemplate{
		Name: "idle",
		Idle: 80 * time.Millisecond,
		Build: func(b *InstanceBuilder, key string) error {
			src := NewSource[int64]("in")
			BindInstanceSource(b, src, decodeInts)
			acc := newCkptAccum()
			b.MustLink(src, acc)
			mu.Lock()
			accs = append(accs, acc)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	if code := postInts(t, ts.URL, "idle", "t1", 7); code != http.StatusAccepted {
		t.Fatalf("post returned %d", code)
	}
	mu.Lock()
	first := accs[0]
	mu.Unlock()
	waitFor(t, "sum", func() bool { return first.sum.Load() == 7 })

	// The idle reaper must remove the instance without being asked: stay
	// quiet past the Idle window, then post again — the traffic must hit a
	// fresh instance restored from the reaped one's snapshot. Each quiet
	// interval comfortably exceeds Idle, so even if an early probe lands
	// on the old instance (slow reaper) the next interval reaps it.
	deadline := time.Now().Add(15 * time.Second)
	for {
		time.Sleep(250 * time.Millisecond)
		code := postInts(t, ts.URL, "idle", "t1", 3)
		mu.Lock()
		rebuilt := len(accs) >= 2
		mu.Unlock()
		if code == http.StatusAccepted && rebuilt {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("instance never idle-reaped (last status %d, builds %d)", code, len(accs))
		}
	}
	mu.Lock()
	second := accs[len(accs)-1]
	mu.Unlock()
	if second == first {
		t.Fatal("idle reap never replaced the instance")
	}
	// Restored snapshot (>=7, plus any probe that hit the old instance)
	// plus the rebuilding post's 3.
	waitFor(t, "restored sum", func() bool { return second.sum.Load() >= 10 })

	if err := rw.Reap("idle", "t1"); err != nil {
		t.Fatalf("final reap: %v", err)
	}
	ctl.CloseIntake()
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
}
