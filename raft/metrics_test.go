package raft

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrapingObserver polls the metrics endpoint mid-run from the observer
// callback, so the scrape exercises live (still-executing) state.
type scrapingObserver struct {
	addr string
	mu   sync.Mutex
	body string
}

func (s *scrapingObserver) observe(LiveStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.body != "" {
		return
	}
	if b, err := pollMetricsOnce(s.addr); err == nil {
		s.body = b
	}
}

func TestMetricsEndpointDuringRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scraper := &scrapingObserver{addr: ln.Addr().String()}

	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(200000), work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(
		WithMetricsListener(ln),
		WithTrace(1<<14),
		WithObserver(1_000_000, scraper.observe), // 1ms
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MetricsAddr == "" {
		t.Fatal("report carries no metrics address")
	}

	scraper.mu.Lock()
	body := scraper.body
	scraper.mu.Unlock()
	if body == "" {
		t.Fatal("no scrape landed during the run")
	}
	for _, want := range []string{
		"raft_link_pushes_total{link=",
		"raft_link_occupancy_bucket{link=",
		"le=\"+Inf\"",
		"raft_link_occupancy_count{link=",
		"raft_kernel_runs_total{kernel=",
		"raft_kernel_service_ns_bucket{kernel=",
		"raft_monitor_ticks_total",
		"raft_trace_dropped_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%.2000s", want, body)
		}
	}

	// Endpoint must be down once Exe returns.
	if _, err := pollMetricsOnce(rep.MetricsAddr); err == nil {
		t.Fatal("metrics endpoint still up after Exe returned")
	}
}

// TestMetricsListenerClosedWhenExeFails: Exe owns the listener it is
// handed, so a run that never starts must close it too.
func TestMetricsListenerClosedWhenExeFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMap()
	if _, err := m.Link(newGen(5), newWork()); err != nil { // work's out is unbound
		t.Fatal(err)
	}
	if _, err := m.Exe(WithMetricsListener(ln)); err == nil {
		t.Fatal("Exe accepted a map with an unbound port")
	}
	// A listener left open would block Accept; the deadline turns that
	// into a timeout error.
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(time.Second))
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		ln.Close()
		t.Fatalf("Accept after a failed Exe = %v, want net.ErrClosed", err)
	}
}

func TestReportChromeTrace(t *testing.T) {
	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(500), work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithTrace(4096))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	var spans int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "M":
			if args, ok := ev["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		}
	}
	if spans == 0 {
		t.Fatal("no kernel spans in chrome trace")
	}
	for _, want := range []string{"genKernel", "workKernel", "collectKernel"} {
		found := false
		for n := range names {
			if strings.HasPrefix(n, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("kernel track %q missing (have %v)", want, names)
		}
	}
}

func TestChromeTraceRequiresTrace(t *testing.T) {
	_, rep := runSumApp(t, 10)
	if err := rep.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error without WithTrace")
	}
}

func TestReportOccupancyHistogram(t *testing.T) {
	_, rep := runSumApp(t, 5000)
	var pushes, occCount uint64
	for _, l := range rep.Links {
		pushes += l.Pushes
		for _, n := range l.OccHist {
			occCount += n
		}
		if l.Pushes > 0 && l.OccP99 == 0 {
			t.Fatalf("link %s: pushes=%d but occ p99 = 0", l.Name, l.Pushes)
		}
	}
	if occCount == 0 {
		t.Fatal("no occupancy samples recorded")
	}
	// One sample per synchronisation point (Telemetry.occ): element-wise
	// pushes ride port windows, so a link synchronises once per commit —
	// at least once, at most once per element.
	if occCount > pushes {
		t.Fatalf("occupancy samples = %d exceed pushes = %d", occCount, pushes)
	}
	for _, l := range rep.Links {
		var samples uint64
		for _, n := range l.OccHist {
			samples += n
		}
		if l.Pushes > 0 && samples == 0 {
			t.Fatalf("link %s: pushes=%d but no occupancy sample", l.Name, l.Pushes)
		}
	}
}

// pollMetricsOnce fetches the endpoint body with a short timeout.
func pollMetricsOnce(addr string) (string, error) {
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
