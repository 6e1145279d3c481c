package raft

import (
	"strings"
	"testing"
	"time"
)

// slowWorkKernel is deliberately the pipeline bottleneck.
type slowWorkKernel struct {
	KernelBase
}

func newSlowWork() *slowWorkKernel {
	k := &slowWorkKernel{}
	AddInput[int64](k, "in")
	AddOutput[int64](k, "out")
	return k
}

func (w *slowWorkKernel) Run() Status {
	v, err := Pop[int64](w.In("in"))
	if err != nil {
		return Stop
	}
	time.Sleep(20 * time.Microsecond)
	if err := Push(w.Out("out"), v); err != nil {
		return Stop
	}
	return Proceed
}

func TestAnalyzeFindsBottleneck(t *testing.T) {
	m := NewMap()
	work := newSlowWork()
	sink := newCollect()
	if _, err := m.Link(newGen(2000), work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe()
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Analyze(m, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(adv.Bottleneck, "slowWorkKernel") {
		t.Fatalf("bottleneck = %q, want the slow worker (advice:\n%s)", adv.Bottleneck, adv)
	}
	if adv.MaxSourceRate <= 0 {
		t.Fatalf("max source rate = %v", adv.MaxSourceRate)
	}
	if u := adv.Utilization[adv.Bottleneck]; u < 0.99 || u > 1.01 {
		t.Fatalf("bottleneck utilization = %v, want 1", u)
	}
	// The bottleneck should get a replica suggestion > 1.
	if adv.ReplicaSuggestion[adv.Bottleneck] < 2 {
		t.Fatalf("replica suggestion = %d, want >= 2", adv.ReplicaSuggestion[adv.Bottleneck])
	}
	if len(adv.BufferSuggestion) == 0 {
		t.Fatal("no buffer suggestions")
	}
	if adv.String() == "" {
		t.Fatal("empty advice rendering")
	}
}

func TestAnalyzeRejectsForeignReport(t *testing.T) {
	m1 := NewMap()
	sink := newCollect()
	if _, err := m1.Link(newGen(10), sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m1.Exe()
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMap()
	s2 := newCollect()
	w2 := newWork()
	if _, err := m2.Link(newGen(10), w2); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Link(w2, s2); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(m2, rep); err == nil {
		t.Fatal("mismatched report must be rejected")
	}
}

func TestAnalyzeGainForFilteringKernel(t *testing.T) {
	// A filter dropping 90% of elements must show gain ~0.1 downstream.
	m := NewMap()
	filter := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		if v%10 == 0 {
			if err := Push(k.Out("0"), v); err != nil {
				return Stop
			}
		}
		return Proceed
	})
	sink := newCollect()
	if _, err := m.Link(newGen(10_000), filter); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(filter, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe()
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.values()) != 1000 {
		t.Fatalf("filter passed %d values", len(sink.values()))
	}
	adv, err := Analyze(m, rep)
	if err != nil {
		t.Fatal(err)
	}
	// Sink load should be ~10% of filter load in the model's view; verify
	// through utilization ordering: sink util << filter util is plausible
	// but depends on rates, so check the advice exists and is finite.
	for name, u := range adv.Utilization {
		if u < 0 {
			t.Fatalf("negative utilization for %s", name)
		}
	}
}

// TestAnalyzeReplicatedRun: the model follows the graph the execution ran,
// so a run whose kernel was replicated is analyzable, adapters included.
func TestAnalyzeReplicatedRun(t *testing.T) {
	m := NewMap()
	m.MustLink(newGen(5000), newWork(), AsOutOfOrder())
	m.MustLink(m.Kernels()[1], newCollect())
	rep, err := m.Exe(WithAutoReplicate(2))
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Analyze(m, rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"split(workKernel#1)", "workKernel#1[1]", "merge(workKernel#1)"} {
		if _, ok := adv.Utilization[name]; !ok {
			t.Fatalf("advice has no %s: %v", name, adv.Utilization)
		}
	}
}
