package qmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMM1Basics(t *testing.T) {
	q := MM1{Lambda: 50, Mu: 100}
	if got := q.Rho(); got != 0.5 {
		t.Fatalf("rho = %v", got)
	}
	if !q.Stable() {
		t.Fatal("rho 0.5 must be stable")
	}
	if got := q.MeanQueueLength(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Lq = %v, want 0.5", got)
	}
	if got := q.MeanWait(); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("W = %v, want 0.02", got)
	}
}

func TestMM1Unstable(t *testing.T) {
	q := MM1{Lambda: 100, Mu: 50}
	if q.Stable() {
		t.Fatal("rho 2 must be unstable")
	}
	if !math.IsInf(q.MeanQueueLength(), 1) || !math.IsInf(q.MeanWait(), 1) {
		t.Fatal("unstable metrics must be infinite")
	}
	if !math.IsInf(MM1{Lambda: 1, Mu: 0}.Rho(), 1) {
		t.Fatal("zero service rate must have infinite rho")
	}
}

func TestBlockingProbability(t *testing.T) {
	q := MM1{Lambda: 50, Mu: 100}
	if p := q.BlockingProbability(0); p != 1 {
		t.Fatalf("k=0: %v", p)
	}
	p1 := q.BlockingProbability(1)
	p10 := q.BlockingProbability(10)
	if !(p10 < p1 && p1 < 1) {
		t.Fatalf("blocking must shrink with capacity: p1=%v p10=%v", p1, p10)
	}
	// rho == 1 special case: 1/(k+1).
	qc := MM1{Lambda: 10, Mu: 10}
	if p := qc.BlockingProbability(4); math.Abs(p-0.2) > 1e-9 {
		t.Fatalf("critical blocking = %v, want 0.2", p)
	}
}

func TestSuggestCapacity(t *testing.T) {
	q := MM1{Lambda: 50, Mu: 100}
	k := q.SuggestCapacity(1e-3, 1, 1024)
	if k < 2 || k > 64 {
		t.Fatalf("suggested capacity = %d, outside sane band", k)
	}
	if q.BlockingProbability(k) >= 1e-3 {
		t.Fatalf("capacity %d does not meet the target", k)
	}
	// Unstable queue: use the cap.
	if got := (MM1{Lambda: 2, Mu: 1}).SuggestCapacity(1e-3, 1, 128); got != 128 {
		t.Fatalf("unstable suggestion = %d, want maxCap", got)
	}
}

func TestSuggestCapacityPropertyMonotone(t *testing.T) {
	f := func(lam uint8) bool {
		lambda := float64(lam%90) + 1 // 1..90 against mu=100
		q := MM1{Lambda: lambda, Mu: 100}
		k1 := q.SuggestCapacity(1e-2, 1, 4096)
		k2 := q.SuggestCapacity(1e-4, 1, 4096)
		return k2 >= k1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// chainNetwork builds source -> work -> sink with the given rates.
func chainNetwork(src, work, sink float64) *Network {
	return &Network{
		Kernels: []KernelModel{
			{Name: "src", ServiceRate: src, Replicas: 1, Gain: 1},
			{Name: "work", ServiceRate: work, Replicas: 1, Gain: 1},
			{Name: "sink", ServiceRate: sink, Replicas: 1, Gain: 1},
		},
		Edges: []EdgeModel{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
	}
}

func TestFlowModelBottleneck(t *testing.T) {
	pred, err := chainNetwork(1000, 100, 500).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Bottleneck != 1 {
		t.Fatalf("bottleneck = %d, want 1 (work)", pred.Bottleneck)
	}
	if math.Abs(pred.MaxSourceRate-100) > 1e-6 {
		t.Fatalf("max rate = %v, want 100", pred.MaxSourceRate)
	}
	if math.Abs(pred.Utilization[1]-1) > 1e-9 {
		t.Fatalf("bottleneck utilization = %v, want 1", pred.Utilization[1])
	}
}

func TestFlowModelReplicasRaiseThroughput(t *testing.T) {
	net := chainNetwork(1000, 100, 500)
	net.Kernels[1].Replicas = 4
	pred, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.MaxSourceRate-400) > 1e-6 {
		t.Fatalf("replicated max rate = %v, want 400", pred.MaxSourceRate)
	}
}

func TestFlowModelFilteringGain(t *testing.T) {
	// Search-like kernel: 1000 inputs -> 1 output; sink is slow but sees
	// almost nothing, so the filter dominates.
	net := &Network{
		Kernels: []KernelModel{
			{Name: "reader", ServiceRate: 10000, Replicas: 1, Gain: 1},
			{Name: "match", ServiceRate: 1000, Replicas: 1, Gain: 0.001},
			{Name: "collect", ServiceRate: 50, Replicas: 1, Gain: 1},
		},
		Edges: []EdgeModel{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
	}
	pred, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Bottleneck != 1 {
		t.Fatalf("bottleneck = %d (%v), want the match kernel", pred.Bottleneck, pred.Utilization)
	}
}

func TestFlowModelFanOutFractions(t *testing.T) {
	// Source splits 70/30 to two workers.
	net := &Network{
		Kernels: []KernelModel{
			{Name: "src", ServiceRate: 1e9, Replicas: 1, Gain: 1},
			{Name: "w1", ServiceRate: 70, Replicas: 1, Gain: 1},
			{Name: "w2", ServiceRate: 30, Replicas: 1, Gain: 1},
		},
		Edges: []EdgeModel{
			{Src: 0, Dst: 1, Fraction: 0.7},
			{Src: 0, Dst: 2, Fraction: 0.3},
		},
	}
	pred, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Both workers saturate at source rate 100.
	if math.Abs(pred.MaxSourceRate-100) > 1e-6 {
		t.Fatalf("max rate = %v, want 100", pred.MaxSourceRate)
	}
}

func TestFlowModelErrors(t *testing.T) {
	if _, err := (&Network{}).Solve(); err == nil {
		t.Fatal("empty network must error")
	}
	cyc := &Network{
		Kernels: []KernelModel{{ServiceRate: 1}, {ServiceRate: 1}},
		Edges:   []EdgeModel{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
	}
	if _, err := cyc.Solve(); err == nil {
		t.Fatal("cyclic network must error")
	}
	badRate := chainNetwork(100, 0, 100)
	if _, err := badRate.Solve(); err == nil {
		t.Fatal("zero service rate on loaded kernel must error")
	}
	badEdge := &Network{Kernels: []KernelModel{{ServiceRate: 1}}, Edges: []EdgeModel{{Src: 0, Dst: 5}}}
	if _, err := badEdge.Solve(); err == nil {
		t.Fatal("out-of-range edge must error")
	}
}
