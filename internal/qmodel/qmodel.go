// Package qmodel implements the analytic machinery RaftLib uses to reason
// about streaming applications as queueing networks (§3: "Streaming systems
// can be modeled as queueing networks. Each stream within the system is a
// queue.").
//
// Three pieces are provided:
//
//   - Classic M/M/1, M/M/1/K and M/M/c (Erlang C) formulas for per-queue
//     estimates and replica sizing.
//   - A flow model in the style of Beard & Chamberlain [8] that propagates
//     rates through the kernel graph, accounts for filtering/amplifying
//     kernels and replication, and predicts the application's bottleneck
//     and maximum throughput (used for the A8 model-vs-measured ablation).
//   - An online estimator of service and arrival rates (estimate.go,
//     after arXiv:1504.00591) that feeds the monitor and the reports.
package qmodel

import (
	"fmt"
	"math"
)

// MM1 models a single M/M/1 queue with arrival rate Lambda and service
// rate Mu (events per second).
type MM1 struct {
	Lambda float64
	Mu     float64
}

// Rho returns the utilization λ/µ.
func (q MM1) Rho() float64 {
	if q.Mu <= 0 {
		return math.Inf(1)
	}
	return q.Lambda / q.Mu
}

// Stable reports whether the queue is stable (ρ < 1).
func (q MM1) Stable() bool { return q.Rho() < 1 }

// MeanQueueLength returns the expected number in queue (not in service),
// Lq = ρ²/(1-ρ). Infinite for unstable queues.
func (q MM1) MeanQueueLength() float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho * rho / (1 - rho)
}

// MeanWait returns the expected time in system W = 1/(µ-λ) (Little's law).
func (q MM1) MeanWait() float64 {
	if q.Mu <= q.Lambda {
		return math.Inf(1)
	}
	return 1 / (q.Mu - q.Lambda)
}

// BlockingProbability returns the probability an arrival finds an
// M/M/1/K system full (and would block the producer), for capacity k >= 1.
func (q MM1) BlockingProbability(k int) float64 {
	if k < 1 {
		return 1
	}
	rho := q.Rho()
	if rho == 1 {
		return 1 / float64(k+1)
	}
	return (1 - rho) * math.Pow(rho, float64(k)) / (1 - math.Pow(rho, float64(k+1)))
}

// SuggestCapacity returns a buffer capacity for which the blocking
// probability is below eps, clamped to [minCap, maxCap]. For unstable
// queues it returns maxCap (no finite buffer helps; the paper's answer is
// the monitor's dynamic resizing plus a buffer cap).
func (q MM1) SuggestCapacity(eps float64, minCap, maxCap int) int {
	if eps <= 0 {
		eps = 1e-3
	}
	if minCap < 1 {
		minCap = 1
	}
	if maxCap < minCap {
		maxCap = minCap
	}
	if !q.Stable() {
		return maxCap
	}
	for k := minCap; k <= maxCap; k++ {
		if q.BlockingProbability(k) < eps {
			return k
		}
	}
	return maxCap
}

// KernelModel describes one compute kernel for the flow model.
type KernelModel struct {
	Name string
	// ServiceRate is the kernel's isolated per-replica service rate in
	// items/second (measured by the runtime's ServiceTimer).
	ServiceRate float64
	// Replicas is the number of parallel copies (>= 1).
	Replicas int
	// Gain is the average number of output items produced per input item
	// (1 = pass-through, <1 = filtering such as text search, >1 =
	// amplification). Ignored for sources.
	Gain float64
}

// EdgeModel describes one stream for the flow model.
type EdgeModel struct {
	Src, Dst int
	// Fraction is the share of Src's output carried by this edge
	// (fan-out splits sum to 1 per source kernel).
	Fraction float64
}

// Network is the flow-model view of a streaming application. Kernel 0..n-1
// with edges between them; sources are kernels with no inbound edges.
type Network struct {
	Kernels []KernelModel
	Edges   []EdgeModel
}

// Prediction is the flow model's output.
type Prediction struct {
	// MaxSourceRate is the highest aggregate source emission rate
	// (items/s) the network sustains.
	MaxSourceRate float64
	// Throughput per kernel at that operating point (items/s entering).
	KernelLoad []float64
	// Utilization per kernel at that operating point.
	Utilization []float64
	// Bottleneck is the index of the kernel with utilization 1.
	Bottleneck int
	// EdgeFlow is the relative flow on each edge per unit of source rate.
	EdgeFlow []float64
}

// Solve propagates unit source flow through the network and returns the
// bottleneck analysis. It returns an error if the network is empty, has a
// cycle, or a non-source kernel has no service rate.
func (n *Network) Solve() (*Prediction, error) {
	k := len(n.Kernels)
	if k == 0 {
		return nil, fmt.Errorf("qmodel: empty network")
	}
	indeg := make([]int, k)
	adj := make([][]int, k) // edge indices by source
	for i, e := range n.Edges {
		if e.Src < 0 || e.Src >= k || e.Dst < 0 || e.Dst >= k {
			return nil, fmt.Errorf("qmodel: edge %d endpoints out of range", i)
		}
		indeg[e.Dst]++
		adj[e.Src] = append(adj[e.Src], i)
	}

	// Relative inbound flow per kernel for one unit of aggregate source
	// emission, distributed evenly across sources.
	inflow := make([]float64, k)
	var sources []int
	for i := range n.Kernels {
		if indeg[i] == 0 {
			sources = append(sources, i)
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("qmodel: no source kernel (cyclic network?)")
	}
	for _, s := range sources {
		inflow[s] = 1 / float64(len(sources))
	}

	// Kahn propagation.
	deg := append([]int(nil), indeg...)
	queue := append([]int(nil), sources...)
	edgeFlow := make([]float64, len(n.Edges))
	visited := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		visited++
		gain := n.Kernels[v].Gain
		if gain == 0 {
			gain = 1
		}
		outflow := inflow[v] * gain
		for _, ei := range adj[v] {
			e := n.Edges[ei]
			frac := e.Fraction
			if frac == 0 {
				frac = 1 / float64(len(adj[v]))
			}
			edgeFlow[ei] = outflow * frac
			inflow[e.Dst] += edgeFlow[ei]
			deg[e.Dst]--
			if deg[e.Dst] == 0 {
				queue = append(queue, e.Dst)
			}
		}
	}
	if visited != k {
		return nil, fmt.Errorf("qmodel: network contains a cycle")
	}

	// Bottleneck: smallest (capacity / relative load).
	maxRate := math.Inf(1)
	bottleneck := -1
	for i, km := range n.Kernels {
		if inflow[i] <= 0 {
			continue
		}
		reps := km.Replicas
		if reps < 1 {
			reps = 1
		}
		if km.ServiceRate <= 0 {
			return nil, fmt.Errorf("qmodel: kernel %q (%d) has no service rate", km.Name, i)
		}
		capRate := km.ServiceRate * float64(reps) / inflow[i]
		if capRate < maxRate {
			maxRate = capRate
			bottleneck = i
		}
	}
	if bottleneck < 0 {
		return nil, fmt.Errorf("qmodel: no loaded kernel")
	}

	pred := &Prediction{
		MaxSourceRate: maxRate,
		KernelLoad:    make([]float64, k),
		Utilization:   make([]float64, k),
		Bottleneck:    bottleneck,
		EdgeFlow:      edgeFlow,
	}
	for i, km := range n.Kernels {
		pred.KernelLoad[i] = inflow[i] * maxRate
		reps := km.Replicas
		if reps < 1 {
			reps = 1
		}
		if km.ServiceRate > 0 {
			pred.Utilization[i] = pred.KernelLoad[i] / (km.ServiceRate * float64(reps))
		}
	}
	return pred, nil
}
