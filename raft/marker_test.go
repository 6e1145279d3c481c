package raft

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMarkersRetireEndToEnd(t *testing.T) {
	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(20000), work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithLatencyMarkers(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sink.values()); got != 20000 {
		t.Fatalf("delivered %d elements, want 20000 (markers perturbed the stream)", got)
	}
	lat := rep.Latency
	if lat == nil {
		t.Fatal("report carries no latency section with markers on")
	}
	if lat.Stride != 16 {
		t.Fatalf("stride = %d, want 16", lat.Stride)
	}
	if lat.Retired == 0 {
		t.Fatal("no markers retired")
	}
	if len(lat.Flows) != 1 || lat.Flows[0].Count != lat.Retired {
		t.Fatalf("flows = %+v, want one flow with count %d", lat.Flows, lat.Retired)
	}
	if lat.Flows[0].SumNs <= 0 || lat.Flows[0].Quantile(0.99) <= 0 {
		t.Fatalf("flow latency not measured: %+v", lat.Flows[0])
	}
	// Both hops of the two-link pipeline must attribute residence.
	if len(lat.Stages) != 2 {
		t.Fatalf("stages = %+v, want 2 hops", lat.Stages)
	}
	for _, s := range lat.Stages {
		if s.Count == 0 {
			t.Fatalf("stage %q saw no hops", s.Stage)
		}
	}
}

func TestMarkersOnByDefault(t *testing.T) {
	// More than DefaultMarkerStride elements, no options: markers must be
	// on and at least one must complete the journey.
	m := NewMap()
	sink := newCollect()
	if _, err := m.Link(newGen(3*DefaultMarkerStride), sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency == nil || rep.Latency.Retired == 0 {
		t.Fatalf("latency = %+v, want markers retired by default", rep.Latency)
	}
}

func TestMarkersDisabled(t *testing.T) {
	m := NewMap()
	sink := newCollect()
	if _, err := m.Link(newGen(5000), sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithoutLatencyMarkers())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency != nil {
		t.Fatalf("latency = %+v, want none with markers disabled", rep.Latency)
	}
	if got := len(sink.values()); got != 5000 {
		t.Fatalf("delivered %d, want 5000", got)
	}
}

// TestFlightRecorderDumpsOnSLOBreach: every element waits on a sink that
// sleeps 2 ms per element, so with a marker on each one the 1 ms SLO is
// breached and the armed flight recorder dumps; the same run without the
// SLO dumps nothing.
func TestFlightRecorderDumpsOnSLOBreach(t *testing.T) {
	run := func(base string, opts ...Option) *Report {
		m := NewMap()
		sink := newPacedCollect(2 * time.Millisecond)
		sink.every = 1
		if _, err := m.Link(newGen(20), sink); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Exe(append(opts, WithLatencyMarkers(1), WithFlightRecorder(base))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(sink.values()); got != 20 {
			t.Fatalf("delivered %d elements, want 20", got)
		}
		return rep
	}

	base := filepath.Join(t.TempDir(), "slo")
	rep := run(base, WithLatencySLO(time.Millisecond))
	if rep.Latency == nil || rep.Latency.FlightDumps == 0 {
		t.Fatalf("latency = %+v, want a flight dump after SLO breaches", rep.Latency)
	}
	dir := base + ".flightdump"
	if rep.Latency.FlightDir != dir {
		t.Fatalf("flight dir = %q, want %q", rep.Latency.FlightDir, dir)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace.json is not a Chrome trace with events (err %v, %d events)", err, len(doc.TraceEvents))
	}
	pm, err := os.ReadFile(filepath.Join(dir, "postmortem.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(pm), "SLO breach") {
		t.Fatalf("post-mortem does not name the SLO breach:\n%s", pm)
	}

	base = filepath.Join(t.TempDir(), "noslo")
	if rep := run(base); rep.Latency.FlightDumps != 0 {
		t.Fatalf("%d flight dumps without an SLO, want 0", rep.Latency.FlightDumps)
	}
	if _, err := os.Stat(base + ".flightdump"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat %s.flightdump = %v, want not exist", base, err)
	}
}

// healthzPoller probes /healthz from the observer callback, capturing the
// first mid-run response.
type healthzPoller struct {
	addr string
	mu   sync.Mutex
	code int
	body string
	seen chan struct{} // closed once a probe has landed
}

func (h *healthzPoller) observe(LiveStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.code != 0 {
		return
	}
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + h.addr + "/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	h.code, h.body = resp.StatusCode, string(b)
	close(h.seen)
}

// heldGen is genKernel holding its last element until hold closes, so the
// run cannot end before whatever holds it has looked.
type heldGen struct {
	genKernel
	hold <-chan struct{}
}

func (g *heldGen) Run() Status {
	if g.next == g.n-1 {
		select {
		case <-g.hold:
		case <-time.After(10 * time.Second): // the test reports the missing probe
		}
	}
	return g.genKernel.Run()
}

// TestHealthzDuringRun: a /healthz probe made while the graph runs answers
// 200 "running". The source holds its last element until the probe has
// landed, so the probe is mid-run at any GOMAXPROCS and however fast the
// run would otherwise finish.
func TestHealthzDuringRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	poller := &healthzPoller{addr: ln.Addr().String(), seen: make(chan struct{})}

	m := NewMap()
	gen := &heldGen{hold: poller.seen}
	gen.n = 20000
	AddOutput[int64](gen, "out")
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(gen, work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(
		WithMetricsListener(ln),
		WithTrace(1<<14),
		WithObserver(1_000_000, poller.observe), // 1ms
	); err != nil {
		t.Fatal(err)
	}

	poller.mu.Lock()
	code, body := poller.code, poller.body
	poller.mu.Unlock()
	if code == 0 {
		t.Fatal("no /healthz probe landed during the run")
	}
	if code != http.StatusOK {
		t.Fatalf("mid-run /healthz = %d, want 200 (body %q)", code, body)
	}
	if !strings.Contains(body, `"state":"running"`) {
		t.Fatalf("mid-run /healthz body = %q, want state running", body)
	}
	if !strings.Contains(body, "lastTraceEventAgeNs") {
		t.Fatalf("/healthz body lacks trace-age field: %q", body)
	}
}
