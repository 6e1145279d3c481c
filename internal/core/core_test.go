package core

import (
	"fmt"
	"testing"
	"time"

	"raftlib/internal/ringbuffer"
)

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Proceed:    "proceed",
		Stop:       "stop",
		Stall:      "stall",
		Status(99): "invalid",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestActorStepTimed(t *testing.T) {
	a := &Actor{
		Name: "worker",
		Step: func() Status {
			time.Sleep(100 * time.Microsecond)
			return Proceed
		},
	}
	if st := a.StepTimed(); st != Proceed {
		t.Fatalf("status = %v", st)
	}
	if a.Service.Count() != 1 {
		t.Fatalf("service count = %d", a.Service.Count())
	}
	if a.Service.MeanNanos() < float64(50*time.Microsecond) {
		t.Fatalf("mean = %v ns, want >= 50µs", a.Service.MeanNanos())
	}
}

func TestLinkInfoString(t *testing.T) {
	r := ringbuffer.NewRing[int](8)
	_ = r.Push(1, ringbuffer.SigNone)
	li := &LinkInfo{ID: 3, Name: "a.out->b.in", Queue: r}
	s := li.String()
	if s == "" {
		t.Fatal("empty string")
	}
	// Must mention capacity and length.
	if want := "cap=8"; !contains(s, want) {
		t.Fatalf("%q missing %q", s, want)
	}
	if want := "len=1"; !contains(s, want) {
		t.Fatalf("%q missing %q", s, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// BenchmarkStepTimedNoop is the fixed cost StepTimed adds to an invocation:
// a kernel that does nothing, so run counting, the observation countdown
// and the amortised share of timing are all that is measured.
func BenchmarkStepTimedNoop(b *testing.B) {
	a := &Actor{Step: func() Status { return Proceed }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.StepTimed()
	}
	if a.Service.Count() != uint64(b.N) {
		b.Fatalf("runs = %d, want %d", a.Service.Count(), b.N)
	}
}

// spinFor busy-waits for at least d.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// eventually runs attempt up to three times and fails only if every try
// does. The estimate-quality checks compare two timings of the same steps
// with a tolerance; a single descheduling of the test process on a busy
// host lands in one of them and not the other, which says nothing about
// the estimator.
func eventually(t *testing.T, attempt func() error) {
	t.Helper()
	var err error
	for try := 0; try < 3; try++ {
		if err = attempt(); err == nil {
			return
		}
		t.Logf("attempt %d: %v", try+1, err)
	}
	t.Fatal(err)
}

// TestStepTimedEstimateQuality checks what budgeted timing reports against
// the wall time of the whole loop: a fine-grained kernel is timed on a sample
// of its invocations and a coarse one on all of them, and for both the
// busy time and the median land where direct measurement puts them.
func TestStepTimedEstimateQuality(t *testing.T) {
	cases := []struct {
		name       string
		step       time.Duration
		steps      int
		everyStep  bool
		p50UpperNs uint64
	}{
		{"spin-300ns", 300 * time.Nanosecond, 200_000, false, 511},
		{"spin-100us", 100 * time.Microsecond, 2_000, true, 131071},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eventually(t, func() error {
				a := &Actor{Step: func() Status {
					spinFor(tc.step)
					return Proceed
				}}
				start := time.Now()
				for i := 0; i < tc.steps; i++ {
					a.StepTimed()
				}
				direct := time.Since(start)
				if got := a.Service.Count(); got != uint64(tc.steps) {
					t.Fatalf("runs = %d, want %d", got, tc.steps) // exact, never retried
				}
				if raceEnabled {
					return nil
				}
				observed := a.Service.Hist().Count()
				if tc.everyStep && observed != uint64(tc.steps) {
					return fmt.Errorf("%d of %d coarse invocations observed, want all", observed, tc.steps)
				}
				busy := time.Duration(a.Service.BusyNanos())
				if ratio := float64(busy) / float64(direct); ratio < 0.85 || ratio > 1.15 {
					return fmt.Errorf("BusyNanos %v vs directly measured %v: ratio %.3f outside ±15%%", busy, direct, ratio)
				}
				if p50 := a.Service.Quantile(0.5); p50 != tc.p50UpperNs {
					return fmt.Errorf("p50 upper bound = %d ns, want %d", p50, tc.p50UpperNs)
				}
				return nil
			})
		})
	}
}

// TestStepTimedDoesNotAlias runs a kernel whose every 256th invocation is
// slow. A fixed observation gap that divides the period would see the slow
// invocations always or never; the geometric countdown must report their
// share of the histogram as what it is.
func TestStepTimedDoesNotAlias(t *testing.T) {
	const period, steps = 256, 2_000_000
	const slow = 10 * time.Microsecond
	if raceEnabled {
		t.Skip("the race detector makes every invocation slow; there is no fine-grained kernel to sample")
	}
	eventually(t, func() error {
		n := 0
		a := &Actor{Step: func() Status {
			if n++; n%period == 0 {
				spinFor(slow)
			}
			return Proceed
		}}
		for i := 0; i < steps; i++ {
			a.StepTimed()
		}
		snap := a.Service.Hist().Snapshot()
		var slowWeight uint64
		for i, c := range snap.Buckets {
			if uint64(1)<<uint(i+1) > uint64(slow) { // bucket reaches up to the slow duration
				slowWeight += c
			}
		}
		share := float64(slowWeight) / float64(snap.Count)
		if want := 1.0 / period; share < 0.7*want || share > 1.3*want {
			return fmt.Errorf("slow share of the histogram = %.5f, want %.5f ±30%%", share, want)
		}
		return nil
	})
}

// retireCounter stands for a kernel's port windows: it counts retires.
type retireCounter struct{ n int }

func (r *retireCounter) RetireAll() { r.n++ }

// TestWindowHoldIsBoundedInKernelTime is retire rule 6. A kernel stepping
// slower than half of windowHoldNanos retires its windows after every
// invocation, so each invocation's output is committed as it was before
// windows existed; a fine-grained one holds them across invocations, but
// never for more than windowHoldNanos/minHoldStepNanos of them; and
// whatever the hold, an invocation that does not return Proceed ends it.
func TestWindowHoldIsBoundedInKernelTime(t *testing.T) {
	w := &retireCounter{}
	slow := &Actor{Windows: w, Step: func() Status {
		spinFor(windowHoldNanos) // well over half the bound, however the clock rounds
		return Proceed
	}}
	for i := 1; i <= 50; i++ {
		slow.StepTimed()
		if w.n != i {
			t.Fatalf("slow kernel: %d retires after %d invocations, want one each", w.n, i)
		}
	}

	const steps = 100_000
	w = &retireCounter{}
	fast := &Actor{Windows: w, Step: func() Status { return Proceed }}
	last, longest := 0, 0
	for i := 1; i <= steps; i++ {
		before := w.n
		fast.StepTimed()
		if w.n != before {
			longest, last = max(longest, i-last), i
		}
	}
	if bound := windowHoldNanos / minHoldStepNanos; longest > bound {
		t.Fatalf("fast kernel held its windows across %d invocations, bound is %d", longest, bound)
	}
	if !raceEnabled && w.n > steps/8 {
		t.Fatalf("fast kernel retired %d times in %d invocations: the hold does not amortise", w.n, steps)
	}

	for _, end := range []Status{Stall, Stop} {
		w = &retireCounter{}
		n := 0
		a := &Actor{Windows: w, Step: func() Status {
			if n++; n%10 == 0 {
				return end
			}
			return Proceed
		}}
		for i := 1; i <= 1000; i++ {
			before := w.n
			if st := a.StepTimed(); st == end && w.n != before+1 {
				t.Fatalf("invocation %d returned %v and left the windows open", i, end)
			}
		}
	}
}

// TestPollGateRetiresBeforeParking is the gate-pause part of retire rule 5:
// the controller that paused an actor finds its windows already retired,
// and an open gate costs no retire.
func TestPollGateRetiresBeforeParking(t *testing.T) {
	w := &retireCounter{}
	a := &Actor{Windows: w, Gate: &Gate{}, Step: func() Status { return Proceed }}
	if a.PollGate() != GateProceed || w.n != 0 {
		t.Fatalf("open gate: %d retires", w.n)
	}
	polled := make(chan GateAction)
	parked := make(chan bool)
	go func() { parked <- a.Gate.Pause(5*time.Second, nil) }()
	for a.Gate.Open() {
		time.Sleep(50 * time.Microsecond)
	}
	go func() { polled <- a.PollGate() }()
	if !<-parked {
		t.Fatal("actor never parked")
	}
	// Pause has returned: the actor is parked inside Poll, after the retire.
	if w.n != 1 {
		t.Fatalf("parked with %d retires, want 1", w.n)
	}
	a.Gate.Retire()
	if got := <-polled; got != GateStop || w.n != 1 {
		t.Fatalf("retired gate: %v after %d retires", got, w.n)
	}
	if a.PollGate() != GateStop || w.n != 2 {
		t.Fatalf("a retired gate must still retire the windows before the actor finishes (%d)", w.n)
	}
}
