package raft

import (
	"fmt"

	"raftlib/internal/qmodel"
)

// Advice is the analytic read-out of a completed execution: the paper's
// §4.1 loop of feeding run-time measurements into a flow model to find the
// bottleneck, predict attainable throughput, and pick buffer sizes
// ("Queueing models are often the fastest way to estimate an approximate
// queue size, however service rates and their distributions must be
// determined, which is hard to do during execution" — the runtime's
// ServiceTimers determine exactly those rates).
type Advice struct {
	// Bottleneck is the name of the kernel limiting throughput.
	Bottleneck string
	// MaxSourceRate is the predicted sustainable aggregate source rate
	// (kernel invocations per second).
	MaxSourceRate float64
	// Utilization maps kernel name to predicted utilization at the
	// bottleneck-limited operating point.
	Utilization map[string]float64
	// ReplicaSuggestion maps a kernel name to the replica count that would
	// equalize it with the next-binding constraint (1 = keep as is).
	ReplicaSuggestion map[string]int
	// BufferSuggestion maps link name to an M/M/1-derived capacity meeting
	// a 0.1% blocking target.
	BufferSuggestion map[string]int
}

// Analyze builds the flow model of an executed Map from its Report and
// returns bottleneck analysis plus sizing suggestions. It must be called
// with the Report produced by this Map's Exe. The model is of the graph
// the execution ran — replicated kernels as their groups — whose kernels
// and links the report rows follow.
func Analyze(m *Map, rep *Report) (*Advice, error) {
	kernels, links := m.kernels, m.links
	if m.reg != nil {
		kernels, links = m.reg.graph()
	}
	if len(rep.Kernels) != len(kernels) || len(rep.Links) != len(links) {
		return nil, fmt.Errorf("raft: report does not match map (%d/%d kernels, %d/%d links)",
			len(rep.Kernels), len(kernels), len(rep.Links), len(links))
	}
	index := make(map[*KernelBase]int, len(kernels))
	for i, k := range kernels {
		index[k.kernelBase()] = i
	}
	elapsed := rep.Elapsed.Seconds()
	if elapsed <= 0 {
		return nil, fmt.Errorf("raft: report has no elapsed time")
	}

	// Per-kernel traffic from per-link push counts (a link's pushes were
	// produced by its Src and consumed by its Dst), and per-kernel blocked
	// time (a link's write-block time was suffered by its Src, read-block
	// time by its Dst). Blocked time must be excluded from service time:
	// a Run invocation that waits on a port is idle, not serving, and
	// counting the wait would make every kernel look as slow as the
	// bottleneck.
	inflow := make([]float64, len(kernels))
	outflow := make([]float64, len(kernels))
	blockedNs := make([]float64, len(kernels))
	for i, l := range links {
		n := float64(rep.Links[i].Pushes)
		src := index[l.Src.kernelBase()]
		dst := index[l.Dst.kernelBase()]
		outflow[src] += n
		inflow[dst] += n
		blockedNs[src] += float64(rep.Links[i].WriteBlockNs)
		blockedNs[dst] += float64(rep.Links[i].ReadBlockNs)
	}

	net := &qmodel.Network{}
	for i, k := range kernels {
		kb := k.kernelBase()
		rate := effectiveRate(rep.Kernels[i], blockedNs[i])
		if rate <= 0 {
			// Virtual or never-scheduled kernels: infinitely fast sources
			// from the model's perspective.
			rate = 1e12
		}
		gain := 1.0
		if inflow[i] > 0 && outflow[i] >= 0 && len(kb.outs) > 0 {
			gain = outflow[i] / inflow[i]
		}
		net.Kernels = append(net.Kernels, qmodel.KernelModel{
			Name:        rep.Kernels[i].Name,
			ServiceRate: rate,
			Replicas:    1,
			Gain:        gain,
		})
	}
	for i, l := range links {
		src := index[l.Src.kernelBase()]
		frac := 1.0
		if outflow[src] > 0 {
			frac = float64(rep.Links[i].Pushes) / outflow[src]
		}
		net.Edges = append(net.Edges, qmodel.EdgeModel{
			Src: src, Dst: index[l.Dst.kernelBase()], Fraction: frac,
		})
	}

	pred, err := net.Solve()
	if err != nil {
		return nil, err
	}

	adv := &Advice{
		Bottleneck:        net.Kernels[pred.Bottleneck].Name,
		MaxSourceRate:     pred.MaxSourceRate,
		Utilization:       map[string]float64{},
		ReplicaSuggestion: map[string]int{},
		BufferSuggestion:  map[string]int{},
	}
	for i, k := range net.Kernels {
		adv.Utilization[k.Name] = pred.Utilization[i]
		// Erlang C sizing: enough replicas that an element rarely waits at
		// the predicted operating point (the M/M/c refinement of the flow
		// model's capacity view).
		adv.ReplicaSuggestion[k.Name] = qmodel.MinServers(pred.KernelLoad[i], k.ServiceRate, 0.2, 64)
	}
	for i, l := range links {
		lambda := float64(rep.Links[i].Pushes) / elapsed
		dst := index[l.Dst.kernelBase()]
		mu := effectiveRate(rep.Kernels[dst], blockedNs[dst])
		if lambda <= 0 || mu <= 0 {
			continue
		}
		q := qmodel.MM1{Lambda: lambda, Mu: mu}
		adv.BufferSuggestion[rep.Links[i].Name] = q.SuggestCapacity(1e-3, 1, 1<<16)
	}
	return adv, nil
}

// effectiveRate converts a kernel's measured totals into a pure service
// rate: invocations per second of actual compute time, with port-blocked
// time removed.
func effectiveRate(k KernelReport, blockedNs float64) float64 {
	if k.Runs == 0 {
		return 0
	}
	busy := float64(k.BusyNanos) - blockedNs
	// Floor at 50ns per invocation: a kernel can't be infinitely fast, and
	// measurement jitter can drive the subtraction negative.
	if min := 50 * float64(k.Runs); busy < min {
		busy = min
	}
	return float64(k.Runs) / (busy / 1e9)
}

// String renders the advice.
func (a *Advice) String() string {
	s := fmt.Sprintf("bottleneck: %s (max source rate %.0f/s)\n", a.Bottleneck, a.MaxSourceRate)
	for name, u := range a.Utilization {
		s += fmt.Sprintf("  %-28s util %.2f  replicas -> %d\n", name, u, a.ReplicaSuggestion[name])
	}
	for link, c := range a.BufferSuggestion {
		s += fmt.Sprintf("  %-44s buffer -> %d\n", link, c)
	}
	return s
}
