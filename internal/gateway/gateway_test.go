package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBucketTake(t *testing.T) {
	var b bucket
	b.init(100, 50)
	now := time.Unix(0, 0)
	if ok, _ := b.take(50, now); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, wait := b.take(10, now)
	if ok {
		t.Fatal("empty bucket granted tokens")
	}
	if want := 100 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v", wait, want)
	}
	// 100 elem/s refills 10 tokens in 100ms.
	if ok, _ := b.take(10, now.Add(100*time.Millisecond)); !ok {
		t.Fatal("refill did not grant")
	}
}

func TestBucketOversizedRequest(t *testing.T) {
	var b bucket
	b.init(10, 5)
	ok, wait := b.take(50, time.Unix(0, 0))
	if ok {
		t.Fatal("request beyond burst granted")
	}
	// Refusal reports time-to-full, not the unreachable full deficit.
	if want := 500 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v", wait, want)
	}
}

func TestBucketUnlimited(t *testing.T) {
	var b bucket
	b.init(0, 0)
	if ok, _ := b.take(1e12, time.Unix(0, 0)); !ok {
		t.Fatal("unlimited bucket refused")
	}
}

func TestBucketRefund(t *testing.T) {
	var b bucket
	b.init(100, 10)
	now := time.Unix(0, 0)
	if ok, _ := b.take(10, now); !ok {
		t.Fatal("take")
	}
	b.refund(10)
	if ok, _ := b.take(10, now); !ok {
		t.Fatal("refund did not restore tokens")
	}
}

// newTestServer builds an unstarted Server with one wired source feeding
// the returned sink slice, one "tenant/element" entry per element.
func newTestServer(t *testing.T, cfg Config, w Wiring) (*Server, *[]string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	var sink []string
	err = srv.Register(Binding{
		Name: "words",
		Decode: func(p []byte) (any, int, error) {
			if len(p) == 0 {
				return nil, 0, fmt.Errorf("empty payload")
			}
			lines := bytes.Split(p, []byte("\n"))
			return lines, len(lines), nil
		},
		Push: func(tenant string, batch any) error {
			for _, e := range batch.([][]byte) {
				sink = append(sink, tenant+"/"+string(e))
			}
			return nil
		},
		CloseIntake: func() {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Wire("words", w); err != nil {
		t.Fatal(err)
	}
	return srv, &sink
}

func idleWiring() Wiring {
	return Wiring{
		Queue:   func() (int, int) { return 0, 64 },
		Rates:   func() (float64, float64, float64, bool) { return 0, 0, 0, false },
		Servers: func() int { return 1 },
	}
}

func post(t *testing.T, h http.Handler, path, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

// TestHTTPAdmittedBody pins the 202 answer byte for byte, for counts
// below and above the two-digit range, against what encoding/json writes
// for the same value.
func TestHTTPAdmittedBody(t *testing.T) {
	for _, n := range []int{0, 3, 99, 123, math.MaxInt} {
		rw := httptest.NewRecorder()
		writeAdmitted(rw, n)
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusAccepted, map[string]any{"admitted": n})
		if got := rw.Body.String(); got != want.Body.String() || got != fmt.Sprintf("{\"admitted\":%d}\n", n) {
			t.Errorf("n=%d: body %q, want %q", n, got, want.Body.String())
		}
		if rw.Code != http.StatusAccepted || rw.Header().Get("Content-Type") != "application/json" {
			t.Errorf("n=%d: status %d, Content-Type %q", n, rw.Code, rw.Header().Get("Content-Type"))
		}
	}
	srv, _ := newTestServer(t, Config{}, idleWiring())
	rw := post(t, srv.Handler(), "/v1/ingest/words", "alice", "a\nb\nc")
	if got := rw.Body.String(); rw.Code != http.StatusAccepted || got != "{\"admitted\":3}\n" {
		t.Fatalf("ingest answered %d %q, want 202 {\"admitted\":3}", rw.Code, got)
	}
}

func TestHTTPIngestAccepted(t *testing.T) {
	srv, sink := newTestServer(t, Config{}, idleWiring())
	rw := post(t, srv.Handler(), "/v1/ingest/words", "alice", "a\nb\nc")
	if rw.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", rw.Code, rw.Body)
	}
	var resp map[string]int
	json.Unmarshal(rw.Body.Bytes(), &resp)
	if resp["admitted"] != 3 {
		t.Fatalf("admitted = %d, want 3", resp["admitted"])
	}
	if got := strings.Join(*sink, ","); got != "alice/a,alice/b,alice/c" {
		t.Fatalf("sink got %q, want alice's three elements", got)
	}
	st := srv.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Name != "alice" || st.Tenants[0].AdmittedElems != 3 {
		t.Fatalf("stats = %+v", st.Tenants)
	}
	// A request without a tenant header is pushed for the default tenant.
	post(t, srv.Handler(), "/v1/ingest/words", "", "d")
	if got := (*sink)[len(*sink)-1]; got != "default/d" {
		t.Fatalf("untenanted element pushed as %q, want default/d", got)
	}
}

func TestHTTPUnknownSource(t *testing.T) {
	srv, _ := newTestServer(t, Config{}, idleWiring())
	if rw := post(t, srv.Handler(), "/v1/ingest/nope", "", "x"); rw.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rw.Code)
	}
}

func TestHTTPUnwiredSource(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	srv.Register(Binding{
		Name:   "cold",
		Decode: func(p []byte) (any, int, error) { return p, 1, nil },
		Push:   func(string, any) error { return nil },
	})
	if rw := post(t, srv.Handler(), "/v1/ingest/cold", "", "x"); rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 before Exe wires the source", rw.Code)
	}
}

func TestHTTPBadPayload(t *testing.T) {
	srv, _ := newTestServer(t, Config{}, idleWiring())
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "", ""); rw.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rw.Code)
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxBody: 8}, idleWiring())
	rw := post(t, srv.Handler(), "/v1/ingest/words", "", strings.Repeat("x", 64))
	if rw.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d", rw.Code)
	}
}

func TestHTTPQuotaShed(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Tenants: map[string]Quota{"alice": {Rate: 10, Burst: 3}},
	}, idleWiring())
	h := srv.Handler()
	if rw := post(t, h, "/v1/ingest/words", "alice", "a\nb\nc"); rw.Code != http.StatusAccepted {
		t.Fatalf("first batch: %d", rw.Code)
	}
	rw := post(t, h, "/v1/ingest/words", "alice", "d\ne\nf")
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rw.Code)
	}
	if ra := rw.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want positive seconds", ra)
	}
	// The unlimited co-tenant is untouched.
	if rw := post(t, h, "/v1/ingest/words", "bob", "x"); rw.Code != http.StatusAccepted {
		t.Fatalf("co-tenant: %d", rw.Code)
	}
	st := srv.Stats()
	for _, ts := range st.Tenants {
		if ts.Name == "alice" && ts.ShedQuota != 1 {
			t.Fatalf("alice ShedQuota = %d", ts.ShedQuota)
		}
	}
}

func TestHTTPModelShedOccupancy(t *testing.T) {
	w := idleWiring()
	w.Queue = func() (int, int) { return 60, 64 } // 94% full
	srv, sink := newTestServer(t, Config{}, w)
	rw := post(t, srv.Handler(), "/v1/ingest/words", "alice", "a")
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rw.Code)
	}
	if ra := rw.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q", ra)
	}
	if len(*sink) != 0 {
		t.Fatal("shed batch reached the source")
	}
	st := srv.Stats()
	if st.Tenants[0].ShedModel != 1 {
		t.Fatalf("ShedModel = %d", st.Tenants[0].ShedModel)
	}
}

func TestHTTPModelShedUtilization(t *testing.T) {
	w := idleWiring()
	w.Rates = func() (float64, float64, float64, bool) { return 95, 100, 0.95, true }
	srv, _ := newTestServer(t, Config{}, w)
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "", "a"); rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 at rho=0.95", rw.Code)
	}
}

func TestHTTPModelShedPredictedWait(t *testing.T) {
	w := idleWiring()
	// rho = 0.85 < RhoShed, but the predicted M/M/1 wait 0.85/(10*0.15) =
	// 567ms blows a 100ms MaxWait.
	w.Rates = func() (float64, float64, float64, bool) { return 8.5, 10, 0.85, true }
	srv, _ := newTestServer(t, Config{MaxWait: 100 * time.Millisecond}, w)
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "", "a"); rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 on predicted wait", rw.Code)
	}
}

func TestHTTPBestEffortAdmitsUnderLoad(t *testing.T) {
	w := idleWiring()
	w.Queue = func() (int, int) { return 64, 64 } // saturated...
	w.BestEffort = true                           // ...but the ring sheds
	w.Dropped = func() uint64 { return 17 }
	srv, _ := newTestServer(t, Config{}, w)
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "", "a"); rw.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 on best-effort link", rw.Code)
	}
	st := srv.Stats()
	if st.Sources[0].Dropped != 17 {
		t.Fatalf("source Dropped = %d, want 17", st.Sources[0].Dropped)
	}
}

func TestHTTPCloseIntake(t *testing.T) {
	closedCh := false
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	srv.Register(Binding{
		Name:        "words",
		Decode:      func(p []byte) (any, int, error) { return p, 1, nil },
		Push:        func(string, any) error { return nil },
		CloseIntake: func() { closedCh = true },
	})
	req := httptest.NewRequest("POST", "/v1/sources/words/close", nil)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusNoContent || !closedCh {
		t.Fatalf("close: status %d, closed %v", rw.Code, closedCh)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{}, idleWiring())
	h := srv.Handler()
	post(t, h, "/v1/ingest/words", "alice", "a\nb")
	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	body := rw.Body.String()
	for _, want := range []string{
		`raft_gateway_admitted_elements_total{tenant="alice"} 2`,
		`raft_gateway_shed_total{tenant="alice",reason="model"} 0`,
		`raft_gateway_source_admitted_elements_total{source="words"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestModelShedRefundsQuota(t *testing.T) {
	w := idleWiring()
	full := true
	w.Queue = func() (int, int) {
		if full {
			return 64, 64
		}
		return 0, 64
	}
	srv, _ := newTestServer(t, Config{
		Tenants: map[string]Quota{"alice": {Rate: 1, Burst: 1}},
	}, w)
	h := srv.Handler()
	// Model shed must refund the token...
	if rw := post(t, h, "/v1/ingest/words", "alice", "a"); rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d", rw.Code)
	}
	// ...so the same batch is admitted the moment the pipeline drains.
	full = false
	if rw := post(t, h, "/v1/ingest/words", "alice", "a"); rw.Code != http.StatusAccepted {
		t.Fatalf("after drain: %d (model shed consumed the quota token)", rw.Code)
	}
}

// TestStatsJSONKeys pins the /v1/stats encoding: every key, and a tenant's
// p99 in integer nanoseconds under E2EP99Ns.
func TestStatsJSONKeys(t *testing.T) {
	st := Stats{
		Tenants: []TenantStats{{Name: "t", AdmittedBatches: 1, AdmittedElems: 2, ShedQuota: 3, ShedModel: 4, E2EP99: 5 * time.Microsecond}},
		Sources: []SourceStats{{Name: "s", AdmittedElems: 6, Dropped: 7, CopiesSaved: 8}},
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Tenants":[{"Name":"t","AdmittedBatches":1,"AdmittedElems":2,"ShedQuota":3,"ShedModel":4,"E2EP99Ns":5000}],"Sources":[{"Name":"s","AdmittedElems":6,"Dropped":7,"CopiesSaved":8}]}`
	if string(b) != want {
		t.Fatalf("/v1/stats JSON\n got %s\nwant %s", b, want)
	}
}
