package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"raftlib/kernels"
	"raftlib/raft"
)

// ablateRate evaluates the estimator-driven controller (A13) against the
// contended-window heuristic it replaces:
//
//  1. parity — the A11 element-wise adaptive pipeline under each
//     controller; the model-driven one must match or beat the heuristic
//     (interleaved best-of-N, like A12).
//  2. reaction — a three-phase ramp workload where arrival rate climbs
//     toward, then past, the consumer's service rate; the rate controller
//     must make its first batch-up decision before the queue saturates
//     (the heuristic, by construction, can only react after).
//  3. overhead — a statically batched pipeline with the controller's full
//     machinery armed (estimator folds over the counters, monitor
//     decisions) but nothing to decide; the cost must stay under the 3%
//     telemetry bar established in A12.
func ablateRate() {
	header("A13: Service-rate controller — heuristic vs online λ̂/µ̂ estimates")

	// --- Part 1: parity on the element-wise adaptive pipeline. ---
	// Short runs measure *when* the first batch-up landed, not the
	// controller: the rate controller spends a fixed ~10ms observation
	// lead-in (estimator priming) before its first decision, and on a
	// batched pipeline pushing ~80 Mitems/s a 2M-element run is over in
	// 25ms — the lead-in would be half the run. Clamp the length so the
	// comparison measures steady-state throughput, not warmup share.
	items := int64(benchItems)
	if items < 10_000_000 {
		items = 10_000_000
	}
	want := items * (items - 1) / 2
	runSum := func(opts ...raft.Option) float64 {
		var sum int64
		m := raft.NewMap()
		m.MustLink(kernels.NewGenerate(items, func(i int64) int64 { return i }),
			kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &sum))
		start := time.Now()
		if _, err := m.Exe(opts...); err != nil {
			fmt.Println("error:", err)
			return 0
		}
		elapsed := time.Since(start)
		if sum != want {
			fmt.Printf("!! sum = %d, want %d (controller changed the stream)\n", sum, want)
		}
		return float64(items) / elapsed.Seconds()
	}
	type cfg struct {
		name string
		opts []raft.Option
	}
	cases := []cfg{
		{"heuristic", []raft.Option{raft.WithAdaptiveBatching(true)}},
		{"rate-control", []raft.Option{raft.WithAdaptiveBatching(true), raft.WithServiceRateControl()}},
	}
	// Interleaved best-of-7 (rep-major, so host drift hits both equally).
	best := make([]float64, len(cases))
	for rep := 0; rep < 7; rep++ {
		for ci, c := range cases {
			if r := runSum(c.opts...); r > best[ci] {
				best[ci] = r
			}
		}
	}
	fmt.Printf("element-wise adaptive pipeline: generate -> reduce, %d int64 elements, best of 7\n\n", items)
	fmt.Printf("%-14s %-12s\n", "controller", "Mitems/s")
	for ci, c := range cases {
		fmt.Printf("%-14s %-12.2f\n", c.name, best[ci]/1e6)
	}
	if best[0] > 0 {
		ratio := best[1] / best[0]
		fmt.Printf("\nrate-control/heuristic: %.2fx (acceptance: >= 0.95x — match or beat)\n", ratio)
		if ratio < 0.95 {
			failf("A13: rate-controlled throughput %.2fx of heuristic (< 0.95x)", ratio)
		}
	}

	// --- Part 2: reaction time on a ramp workload. ---
	// Arrival rate climbs in three phases against a consumer that needs
	// ~consumeNs per element: cruise (ρ≈0.25), ramp (ρ≈0.8 — past the
	// controller's RhoGrow threshold but still below saturation, so the
	// queue stays near-empty and the contended-window heuristic sees
	// nothing), flood (ρ>1, the queue fills and blocks). A controller
	// reading λ̂/µ̂ fires during the ramp; one reading blocking evidence
	// can only fire during the flood.
	const (
		phaseItems = 20_000
		cruiseNs   = 12_000
		rampNs     = 4_000
		consumeNs  = 3_000
		rampCap    = 1024
	)
	// Busy-wait with a yield each lap: on a single-P runtime a pure spin
	// starves the peer kernel and the queue saturates instantly, erasing
	// the ρ≈0.25 / ρ≈0.8 phases the experiment is built around. Yielding
	// keeps producer and consumer interleaved so arrival and service rates
	// track the designed pacing on any core count.
	spin := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
			runtime.Gosched()
		}
	}
	runRamp := func(opts ...raft.Option) (firstUp time.Duration, lenAtUp, capAtUp int, satAt, rampAt time.Duration) {
		var produced int64
		var start, rampStart time.Time
		src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
			switch {
			case produced >= 3*phaseItems:
				return raft.Stop
			case produced < phaseItems:
				spin(cruiseNs * time.Nanosecond)
			case produced < 2*phaseItems:
				if rampStart.IsZero() {
					rampStart = time.Now()
				}
				spin(rampNs * time.Nanosecond)
			}
			if err := raft.Push(k.Out("0"), produced); err != nil {
				return raft.Stop
			}
			produced++
			return raft.Proceed
		})
		sink := raft.NewLambda[int64](1, 0, func(k *raft.LambdaKernel) raft.Status {
			if _, err := raft.Pop[int64](k.In("0")); err != nil {
				return raft.Stop
			}
			spin(consumeNs * time.Nanosecond)
			return raft.Proceed
		})

		// Observer samples queue length so a monitor decision can be dated
		// against how full the queue was when it fired.
		type occSample struct {
			at  time.Time
			len int
			cap int
		}
		var mu sync.Mutex
		var samples []occSample
		obs := func(ls raft.LiveStats) {
			mu.Lock()
			defer mu.Unlock()
			for _, l := range ls.Links {
				samples = append(samples, occSample{ls.At, l.Len, l.FinalCap})
			}
		}

		m := raft.NewMap()
		m.MustLink(src, sink, raft.Cap(rampCap), raft.MaxCap(rampCap))
		start = time.Now()
		rep, err := m.Exe(append([]raft.Option{
			raft.WithAdaptiveBatching(true),
			raft.WithObserver(time.Millisecond, obs),
		}, opts...)...)
		if err != nil {
			fmt.Println("error:", err)
			return 0, 0, 0, 0, 0
		}
		var upAt time.Time
		for _, e := range rep.MonitorEvents {
			if e.Kind == "batch-up" {
				upAt = e.At
				break
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for _, s := range samples {
			if satAt == 0 && s.len >= s.cap/2 {
				satAt = s.at.Sub(start)
			}
			if !upAt.IsZero() && !s.at.After(upAt) {
				lenAtUp, capAtUp = s.len, s.cap
			}
		}
		if !upAt.IsZero() {
			firstUp = upAt.Sub(start)
		}
		if !rampStart.IsZero() {
			rampAt = rampStart.Sub(start)
		}
		return firstUp, lenAtUp, capAtUp, satAt, rampAt
	}

	fmt.Printf("\nramp workload: %d+%d+%d items at ~%.0f%%/~%.0f%%/>100%% of consumer rate, cap %d\n",
		phaseItems, phaseItems, phaseItems,
		100*float64(consumeNs)/float64(cruiseNs), 100*float64(consumeNs)/float64(rampNs), rampCap)
	fmt.Printf("%-14s %-16s %-16s %-18s %-16s\n", "controller", "ramp begins", "first batch-up", "queue at decision", "half-full at")
	show := func(name string, opts ...raft.Option) (up time.Duration, frac float64, sat time.Duration) {
		up, l, c, sat, ramp := runRamp(opts...)
		upS, satS, rampS, occS := "never", "never", "-", "-"
		if up > 0 {
			upS = fmt.Sprintf("%v", up.Round(time.Millisecond))
		}
		if sat > 0 {
			satS = fmt.Sprintf("%v", sat.Round(time.Millisecond))
		}
		if ramp > 0 {
			rampS = fmt.Sprintf("%v", ramp.Round(time.Millisecond))
		}
		frac = -1
		if c > 0 {
			frac = float64(l) / float64(c)
			occS = fmt.Sprintf("%d/%d (%.0f%%)", l, c, 100*frac)
		} else if up > 0 {
			frac, occS = 0, "0 (pre-sample)"
		}
		fmt.Printf("%-14s %-16s %-16s %-18s %-16s\n", name, rampS, upS, occS, satS)
		return up, frac, sat
	}
	show("heuristic", raft.WithAdaptiveBatching(true))
	rUp, rFrac, rSat := show("rate-control", raft.WithServiceRateControl())
	switch {
	case rUp == 0:
		failf("A13: rate controller never grew the batch on the ramp")
	case rSat > 0 && rUp >= rSat:
		failf("A13: rate controller reacted at %v, after the queue was half-full at %v", rUp, rSat)
	case rFrac >= 0.5:
		failf("A13: rate controller decided at %.0f%% occupancy (not pre-saturation)", 100*rFrac)
	default:
		fmt.Printf("\nrate controller reacted before saturation (queue at %.0f%% when it fired)\n", 100*max(rFrac, 0))
	}

	// --- Part 3: control overhead with nothing to decide. ---
	// Static batch-64 pipeline: the batcher has no reason to move, so the
	// only difference is the armed machinery — span tracing, estimator
	// folds on monitor ticks, λ̂/µ̂ lookups per batch window.
	runBatched := func(opts ...raft.Option) float64 {
		var sum int64
		m := raft.NewMap()
		gen := kernels.NewGenerate(items, func(i int64) int64 { return i }).SetBatch(64)
		red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &sum).SetBatch(64)
		m.MustLink(gen, red)
		start := time.Now()
		if _, err := m.Exe(opts...); err != nil {
			fmt.Println("error:", err)
			return 0
		}
		elapsed := time.Since(start)
		if sum != want {
			fmt.Printf("!! sum = %d, want %d\n", sum, want)
		}
		return float64(items) / elapsed.Seconds()
	}
	oCases := []cfg{
		{"monitor", nil},
		{"monitor+rate", []raft.Option{raft.WithServiceRateControl()}},
	}
	oBest := make([]float64, len(oCases))
	for rep := 0; rep < 7; rep++ {
		for ci, c := range oCases {
			if r := runBatched(c.opts...); r > oBest[ci] {
				oBest[ci] = r
			}
		}
	}
	fmt.Printf("\ncontrol overhead: batched-64 pipeline, %d elements, best of 7\n\n", items)
	fmt.Printf("%-14s %-12s %-10s\n", "config", "Mitems/s", "overhead")
	fmt.Printf("%-14s %-12.2f %-10s\n", oCases[0].name, oBest[0]/1e6, "-")
	if oBest[1] > 0 {
		over := 100 * (oBest[0]/oBest[1] - 1)
		fmt.Printf("%-14s %-12.2f %-+.1f%%\n", oCases[1].name, oBest[1]/1e6, over)
		fmt.Printf("\nacceptance: overhead <= 3%%\n")
		if over > 3 {
			failf("A13: control overhead %.1f%% > 3%%", over)
		}
	}

	fmt.Println("\nexpected: parity or better on the adaptive pipeline (the rate")
	fmt.Println("signal reaches the same ceiling sooner); on the ramp the first")
	fmt.Println("batch-up lands during the ρ̂≈0.8 phase while the queue is still")
	fmt.Println("nearly empty; and the armed-but-idle controller, which reads")
	fmt.Println("counters the runtime keeps anyway, stays inside the 3% bar.")
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
