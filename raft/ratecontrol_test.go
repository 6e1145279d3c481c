package raft

import (
	"net"
	"strings"
	"testing"
	"time"
)

// slowSink pops one element per Run and burns a little CPU, keeping the
// pipeline alive long enough for the rate estimator to prime (λ̂ needs ~5
// estimation windows ≈ 10ms).
type slowSink struct {
	KernelBase
	n    int64
	spin time.Duration
}

func newSlowSink(spin time.Duration) *slowSink {
	k := &slowSink{spin: spin}
	AddInput[int64](k, "in")
	return k
}

func (s *slowSink) Run() Status {
	if _, err := Pop[int64](s.In("in")); err != nil {
		return Stop
	}
	s.n++
	for t0 := time.Now(); time.Since(t0) < s.spin; {
	}
	return Proceed
}

// TestServiceRateControlEndToEnd: the final report carries primed λ̂, µ̂
// and ρ̂ on the link and µ̂ on the consumer. µ̂ primes only over windows in
// which the sink was busy, so the source keeps elements flowing — at least
// 30 000, then until an observer has seen every estimate (or a cap) — and
// the estimates prime at any GOMAXPROCS.
func TestServiceRateControlEndToEnd(t *testing.T) {
	seen := make(chan struct{})
	obs := func(ls LiveStats) {
		var link, kernel bool
		for _, l := range ls.Links {
			link = link || l.LambdaHat > 0 && l.MuHat > 0 && l.RhoHat > 0
		}
		for _, k := range ls.Kernels {
			kernel = kernel || k.MuHat > 0
		}
		if link && kernel {
			select {
			case <-seen:
			default:
				close(seen)
			}
		}
	}
	src, sent := sourceUntil(30_000, seen)
	m := NewMap()
	sink := newSlowSink(2 * time.Microsecond)
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithServiceRateControl(), WithObserver(time.Millisecond, obs))
	if err != nil {
		t.Fatal(err)
	}
	if sink.n != *sent {
		t.Fatalf("sink consumed %d of %d", sink.n, *sent)
	}

	// The report must carry primed λ̂/µ̂/ρ̂ on the one link and µ̂ on the
	// consumer (the run lasts tens of milliseconds; priming takes ~10ms).
	if len(rep.Links) != 1 {
		t.Fatalf("links = %d", len(rep.Links))
	}
	l := rep.Links[0]
	if l.LambdaHat <= 0 || l.MuHat <= 0 || l.RhoHat <= 0 {
		t.Fatalf("link estimates missing: λ̂=%v µ̂=%v ρ̂=%v", l.LambdaHat, l.MuHat, l.RhoHat)
	}
	// A blocking-contaminated µ̂ would read ρ̂≈1 regardless of load; the
	// busy-time estimate must keep a saturated pipe's ρ̂ in a sane band.
	if l.RhoHat > 5 {
		t.Fatalf("ρ̂ = %v, implausible", l.RhoHat)
	}
	var muSeen bool
	for _, k := range rep.Kernels {
		if k.MuHat > 0 {
			muSeen = true
		}
	}
	if !muSeen {
		t.Fatal("no kernel reports µ̂")
	}
	// The rendered report grows the estimate columns only when estimates
	// exist.
	if s := rep.String(); !strings.Contains(s, "λ̂/s") || !strings.Contains(s, "ρ̂") {
		t.Fatalf("report missing estimate columns:\n%s", s)
	}
}

func TestServiceRateControlMetricsGauges(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scraper := &scrapingObserver{addr: ln.Addr().String()}

	m := NewMap()
	sink := newSlowSink(time.Microsecond)
	if _, err := m.Link(newGen(50_000), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(
		WithServiceRateControl(),
		WithMetricsListener(ln),
		WithObserver(1_000_000, scraper.observe), // 1ms
	); err != nil {
		t.Fatal(err)
	}
	scraper.mu.Lock()
	body := scraper.body
	scraper.mu.Unlock()
	if body == "" {
		t.Fatal("no scrape landed during the run")
	}
	for _, want := range []string{
		"raft_link_lambda_hat{link=",
		"raft_link_mu_hat{link=",
		"raft_link_rho_hat{link=",
		"raft_kernel_mu_hat{kernel=",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%.2000s", want, body)
		}
	}
}

// TestLiveStatsCarryEstimates: the observer sees λ̂ and µ̂ while the graph
// runs. µ̂ primes only over windows in which the sink was busy, so the
// source keeps elements flowing — at least 30 000, then until the observer
// has seen both estimates — and an observer tick lands mid-flow at any
// GOMAXPROCS.
func TestLiveStatsCarryEstimates(t *testing.T) {
	var sawLambda, sawMuHat bool
	seen := make(chan struct{})
	obs := func(ls LiveStats) {
		for _, l := range ls.Links {
			if l.LambdaHat > 0 {
				sawLambda = true
			}
		}
		for _, k := range ls.Kernels {
			if k.MuHat > 0 {
				sawMuHat = true
			}
		}
		if sawLambda && sawMuHat {
			select {
			case <-seen:
			default:
				close(seen)
			}
		}
	}
	src, _ := sourceUntil(30_000, seen)
	m := NewMap()
	sink := newSlowSink(2 * time.Microsecond)
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(WithServiceRateControl(), WithObserver(1_000_000, obs)); err != nil {
		t.Fatal(err)
	}
	if !sawLambda || !sawMuHat {
		t.Fatalf("live stats estimates: λ̂ seen=%v µ̂ seen=%v", sawLambda, sawMuHat)
	}
}

// sourceUntil returns a source of consecutive int64s that sends at least
// min elements, then keeps sending until seen closes — an observer's
// witness that what a test asserts on has happened while elements flowed —
// or 10 s have passed, after which the test reports what was missing. sent
// counts the elements sent; read it after the run.
func sourceUntil(min int64, seen <-chan struct{}) (src *LambdaKernel, sent *int64) {
	sent = new(int64)
	deadline := time.Now().Add(10 * time.Second)
	src = NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		if *sent >= min {
			select {
			case <-seen:
				return Stop
			default:
			}
			if time.Now().After(deadline) {
				return Stop
			}
		}
		if err := Push(k.Out("0"), *sent); err != nil {
			return Stop
		}
		*sent++
		return Proceed
	})
	return src, sent
}
