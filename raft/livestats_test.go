package raft

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObserverReceivesSnapshots(t *testing.T) {
	var mu sync.Mutex
	var snaps []LiveStats
	m := NewMap()
	work := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		time.Sleep(50 * time.Microsecond) // keep the app alive a few ticks
		if err := Push(k.Out("0"), v); err != nil {
			return Stop
		}
		return Proceed
	})
	sink := newCollect()
	if _, err := m.Link(newGen(100), work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe(WithObserver(2*time.Millisecond, func(s LiveStats) {
		mu.Lock()
		snaps = append(snaps, s)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("observer never invoked")
	}
	final := snaps[len(snaps)-1]
	if len(final.Links) != 2 || len(final.Kernels) != 3 {
		t.Fatalf("final snapshot: %d links, %d kernels", len(final.Links), len(final.Kernels))
	}
	// The final snapshot (taken at Stop) must reflect the completed run.
	var totalPops uint64
	for _, l := range final.Links {
		totalPops += l.Pops
	}
	if totalPops != 200 {
		t.Fatalf("final pops = %d, want 200", totalPops)
	}
	for _, k := range final.Kernels {
		if k.Runs == 0 {
			t.Fatalf("kernel %s shows zero runs in final snapshot", k.Name)
		}
	}
	if final.Elapsed <= 0 {
		t.Fatal("no elapsed in snapshot")
	}
}

func TestObserverIntervalClamped(t *testing.T) {
	cfg := defaultConfig()
	WithObserver(0, func(LiveStats) {})(&cfg)
	if cfg.observeEvery < time.Millisecond {
		t.Fatalf("interval = %v, want clamped to >= 1ms", cfg.observeEvery)
	}
}

func TestReportStringAndDot(t *testing.T) {
	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(1000), work, AsOutOfOrder()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithAutoReplicate(2))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"kernels (", "streams (", "replicated groups", "split(", "merge("} {
		if !strings.Contains(s, want) {
			t.Fatalf("report rendering missing %q:\n%s", want, s)
		}
	}
	dot := m.Dot()
	for _, want := range []string{"digraph raft", "->", "split", "merge"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestTraceRecordsAndRenders(t *testing.T) {
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
	if rep.Trace == nil {
		t.Fatal("no trace recorder on report")
	}
	spans := rep.Trace.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	out := rep.Trace.Timeline(TraceNames(rep), 40)
	for _, name := range []string{"genKernel", "workKernel", "collectKernel"} {
		if !strings.Contains(out, name) {
			t.Fatalf("timeline missing %s:\n%s", name, out)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	_, rep := runSumApp(t, 10)
	if rep.Trace != nil {
		t.Fatal("trace must be opt-in")
	}
}
