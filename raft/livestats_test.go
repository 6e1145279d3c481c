package raft

import (
	"strings"
	"sync"
	"testing"
	"time"

	"raftlib/internal/trace"
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

// TestLiveRowsMatchReport: LiveStats and the Report read the same rows, so
// on a static run the observer's final snapshot (taken once every kernel
// has stopped) lists the Report's kernels and streams, in order, with the
// same names, capacities, pushes, pops and drops.
func TestLiveRowsMatchReport(t *testing.T) {
	for _, sc := range bothSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			var mu sync.Mutex
			var last LiveStats
			m := NewMap()
			work := newWork()
			m.MustLink(newGen(3000), work, Cap(8), MaxCap(64))
			m.MustLink(work, newCollect(), AsBestEffort(), Cap(4), MaxCap(4))
			rep, err := m.Exe(append([]Option{WithObserver(time.Millisecond, func(s LiveStats) {
				mu.Lock()
				last = s
				mu.Unlock()
			})}, sc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(last.Kernels) != len(rep.Kernels) || len(last.Links) != len(rep.Links) {
				t.Fatalf("final snapshot has %d kernels and %d links, the Report %d and %d",
					len(last.Kernels), len(last.Links), len(rep.Kernels), len(rep.Links))
			}
			for i, k := range last.Kernels {
				if k.Name != rep.Kernels[i].Name {
					t.Fatalf("kernel row %d: live %q, report %q", i, k.Name, rep.Kernels[i].Name)
				}
			}
			for i, l := range last.Links {
				if live, final := rowOf(l), rowOf(rep.Links[i]); live != final {
					t.Fatalf("link row %d: live %+v, report %+v", i, live, final)
				}
			}
			if (last.Sched != nil) != (sc.opts != nil) {
				t.Fatalf("Sched = %+v under %s", last.Sched, sc.name)
			}
		})
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
	ends := 0
	for _, e := range rep.Trace.Events() {
		if e.Kind == trace.RunEnd {
			ends++
		}
	}
	if ends == 0 {
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
