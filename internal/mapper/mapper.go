// Package mapper solves RaftLib's mapping problem: assigning compute
// kernels to compute resources.
//
// From the paper (§4.1): "the initial mapping algorithm provided with
// RaftLib is a simple one (similar to a spanning tree) that attempts to
// place the fewest number of 'streams' over high latency connections (i.e.,
// across physical compute cores or TCP links). It begins with a priority
// queue with the highest latency link getting the highest priority, finds
// the partition with the minimal number of links crossing it then proceeds
// to partition based on the next highest latency link for these two
// partitions. If no difference in latency exists ... then computation is
// shared evenly amongst the cores."
//
// The implementation here is exactly that scheme expressed as hierarchical
// recursive bisection over a place hierarchy (machine → socket → core, with
// optional remote nodes): at each hierarchy level — highest crossing
// latency first — the kernel set is split into balanced parts minimizing
// the weight of streams crossing the boundary, then each part recurses into
// the next level. No claim of optimality is made (nor does the paper); the
// algorithm is fast and the A6 ablation compares it against random and
// even-spread placement.
package mapper

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"raftlib/internal/graph"
)

// Place is one leaf compute resource (a core, possibly remote).
type Place struct {
	ID     int
	Node   int // machine index (0 = local)
	Socket int // socket index within the machine
	Core   int // core index within the socket
	// Speed is a relative compute-speed multiplier (1.0 = baseline);
	// heterogeneous resources (the paper's FPGA/GPU places) use ≠1 values.
	Speed float64
}

// Topology is the set of places plus the latency model between them.
type Topology struct {
	Places []Place
	// Latencies for stream crossings at each boundary level.
	SameCoreLatency    time.Duration
	CrossCoreLatency   time.Duration
	CrossSocketLatency time.Duration
	CrossNodeLatency   time.Duration
}

// Default boundary latencies (order-of-magnitude costs of moving one cache
// line across the boundary; only ratios matter to the partitioner).
const (
	DefaultCrossCoreLatency   = 100 * time.Nanosecond
	DefaultCrossSocketLatency = 300 * time.Nanosecond
	DefaultCrossNodeLatency   = 50 * time.Microsecond
)

// NewLocal builds a single-machine topology with the given core count
// spread evenly over the given socket count.
func NewLocal(cores, sockets int) Topology {
	if cores < 1 {
		cores = 1
	}
	if sockets < 1 {
		sockets = 1
	}
	if sockets > cores {
		sockets = cores
	}
	t := Topology{
		CrossCoreLatency:   DefaultCrossCoreLatency,
		CrossSocketLatency: DefaultCrossSocketLatency,
		CrossNodeLatency:   DefaultCrossNodeLatency,
	}
	perSocket := (cores + sockets - 1) / sockets
	for c := 0; c < cores; c++ {
		t.Places = append(t.Places, Place{
			ID:     c,
			Node:   0,
			Socket: c / perSocket,
			Core:   c % perSocket,
			Speed:  1,
		})
	}
	return t
}

// AddRemoteNode appends cores belonging to an additional machine and
// returns the new node index. Remote places model the paper's distributed
// ("oar") resources reachable over TCP links.
func (t *Topology) AddRemoteNode(cores int) int {
	node := 0
	for _, p := range t.Places {
		if p.Node >= node {
			node = p.Node + 1
		}
	}
	base := len(t.Places)
	for c := 0; c < cores; c++ {
		t.Places = append(t.Places, Place{
			ID: base + c, Node: node, Socket: 0, Core: c, Speed: 1,
		})
	}
	return node
}

// Latency returns the modeled cost of a stream between two places.
func (t Topology) Latency(a, b int) time.Duration {
	pa, pb := t.Places[a], t.Places[b]
	switch {
	case pa.Node != pb.Node:
		return t.CrossNodeLatency
	case pa.Socket != pb.Socket:
		return t.CrossSocketLatency
	case pa.Core != pb.Core:
		return t.CrossCoreLatency
	default:
		return t.SameCoreLatency
	}
}

// Assignment maps node (kernel) IDs to place IDs.
type Assignment []int

// CutCost returns the total latency-weighted cost of streams that cross
// place boundaries under the assignment: Σ edgeWeight × latency.
func CutCost(g *graph.Graph, t Topology, a Assignment) time.Duration {
	var total time.Duration
	for _, e := range g.Edges {
		lat := t.Latency(a[e.Src], a[e.Dst])
		total += time.Duration(float64(lat) * e.Weight)
	}
	return total
}

// Assign runs the latency-priority recursive partitioner and returns a
// place for every kernel. It returns an error for an empty topology.
func Assign(g *graph.Graph, t Topology) (Assignment, error) {
	if len(t.Places) == 0 {
		return nil, fmt.Errorf("mapper: topology has no places")
	}
	kernels := make([]int, len(g.Nodes))
	for i := range kernels {
		kernels[i] = i
	}
	places := make([]int, len(t.Places))
	for i := range places {
		places[i] = i
	}
	asg := make(Assignment, len(g.Nodes))
	assignLevel(g, t, kernels, places, levelNode, asg)
	return asg, nil
}

type level int

const (
	levelNode level = iota
	levelSocket
	levelCore
	levelDone
)

// groupKey buckets places at the given hierarchy level.
func groupKey(p Place, lv level) int {
	switch lv {
	case levelNode:
		return p.Node
	case levelSocket:
		return p.Socket
	default:
		return p.Core
	}
}

// assignLevel recursively partitions kernels over the place groups at this
// hierarchy level, then descends into each group.
func assignLevel(g *graph.Graph, t Topology, kernels, places []int, lv level, out Assignment) {
	if len(kernels) == 0 {
		return
	}
	if lv == levelDone || len(places) == 1 {
		for _, k := range kernels {
			out[k] = places[0]
		}
		return
	}
	// Group the available places at this level.
	groupIdx := map[int][]int{}
	var keys []int
	for _, pid := range places {
		key := groupKey(t.Places[pid], lv)
		if _, ok := groupIdx[key]; !ok {
			keys = append(keys, key)
		}
		groupIdx[key] = append(groupIdx[key], pid)
	}
	sort.Ints(keys)
	if len(keys) == 1 {
		// No latency difference at this boundary: descend directly
		// ("computation is shared evenly amongst the cores").
		assignLevel(g, t, kernels, groupIdx[keys[0]], lv+1, out)
		return
	}
	parts := partition(g, kernels, len(keys))
	for i, key := range keys {
		assignLevel(g, t, parts[i], groupIdx[key], lv+1, out)
	}
}

// partitionExactMax bounds the kernel-set size the exact cut DP and greedy
// refinement run on; larger sets take the linearize-and-split fast path.
const partitionExactMax = 2048

// partition splits the kernel set into k contiguous parts of a
// depth-first linearization, choosing the k-1 cut positions that sever the
// fewest (weighted) streams subject to a loose balance bound — the
// minimal-crossings objective of the paper's mapper, with balance as the
// tie-breaker rather than the goal. A greedy boundary-move refinement
// follows.
func partition(g *graph.Graph, kernels []int, k int) [][]int {
	if k <= 1 || len(kernels) <= 1 {
		return pad([][]int{append([]int(nil), kernels...)}, k)
	}
	inSet := make([]bool, len(g.Nodes))
	for _, v := range kernels {
		inSet[v] = true
	}
	order := chainOrder(g, kernels, inSet)
	n := len(order)
	origK := k
	if k > n {
		k = n
	}

	if n > partitionExactMax {
		// Fast path for very large kernel sets (the 100k-kernel graphs the
		// work-stealing scheduler targets): the exact cut DP is
		// O(k·n·maxBlock) and the greedy refinement O(passes·n·E), both
		// quadratic-ish in n. The linearization already places most stream
		// edges between adjacent positions, so even contiguous blocks over
		// it — the same shape as the DP's infeasibility fallback — cut few
		// streams at a tiny fraction of the cost.
		parts := make([][]int, k)
		for i, v := range order {
			pi := i * k / n
			parts[pi] = append(parts[pi], v)
		}
		return pad(parts, origK)
	}

	// spanCost[p] = total weight of edges whose endpoints straddle a cut
	// between order positions p-1 and p.
	pos := make([]int, len(g.Nodes))
	for i, v := range order {
		pos[v] = i
	}
	spanCost := make([]float64, n+1)
	for _, e := range g.Edges {
		if !inSet[e.Src] || !inSet[e.Dst] {
			continue
		}
		lo, hi := pos[e.Src], pos[e.Dst]
		if lo > hi {
			lo, hi = hi, lo
		}
		for p := lo + 1; p <= hi; p++ {
			spanCost[p] += e.Weight
		}
	}

	// DP over cut positions: f[j][p] = min cost of splitting order[0:p]
	// into j blocks, each with size in [1, maxBlock].
	maxBlock := (3*n + 2*k - 1) / (2 * k) // ceil(1.5 n / k)
	if maxBlock < 1 {
		maxBlock = 1
	}
	const inf = 1e18
	f := make([][]float64, k+1)
	cutAt := make([][]int, k+1)
	for j := range f {
		f[j] = make([]float64, n+1)
		cutAt[j] = make([]int, n+1)
		for p := range f[j] {
			f[j][p] = inf
		}
	}
	f[0][0] = 0
	for j := 1; j <= k; j++ {
		for p := 1; p <= n; p++ {
			for q := p - 1; q >= 0 && p-q <= maxBlock; q-- {
				if f[j-1][q] >= inf {
					continue
				}
				cost := f[j-1][q]
				if q > 0 {
					cost += spanCost[q]
				}
				if cost < f[j][p] {
					f[j][p] = cost
					cutAt[j][p] = q
				}
			}
		}
	}

	parts := make([][]int, k)
	if f[k][n] >= inf {
		// Infeasible under the balance bound (shouldn't happen with
		// maxBlock >= ceil(n/k)); fall back to even blocks.
		for i, v := range order {
			pi := i * k / n
			parts[pi] = append(parts[pi], v)
		}
	} else {
		p := n
		for j := k; j >= 1; j-- {
			q := cutAt[j][p]
			block := append([]int(nil), order[q:p]...)
			parts[j-1] = block
			p = q
		}
	}
	refine(g, parts, inSet)
	return pad(parts, origK)
}

// pad extends a part list with empty parts up to k entries.
func pad(parts [][]int, k int) [][]int {
	for len(parts) < k {
		parts = append(parts, nil)
	}
	return parts
}

// chainOrder linearizes the kernel subset so that contiguous blocks cut as
// few streams as possible: a depth-first walk from the subset's sources
// (the paper's "similar to a spanning tree"), taking the branch with the
// fewest descendants first so short side chains stay adjacent to their
// fork instead of straddling a cut. Cyclic leftovers are appended as-is.
func chainOrder(g *graph.Graph, kernels []int, inSet []bool) []int {
	// Dense tables indexed by node ID: the subset's in-degrees, and each
	// node's memoized descendant count (-1 until counted; over-counts on
	// diamonds, a fine tie-break heuristic).
	off, dst := g.Successors()
	indeg := make([]int, len(g.Nodes))
	desc := make([]int, len(g.Nodes))
	for _, v := range kernels {
		desc[v] = -1
	}
	for _, e := range g.Edges {
		if inSet[e.Src] && inSet[e.Dst] {
			indeg[e.Dst]++
		}
	}
	// children appends v's successors inside the subset to buf.
	children := func(buf []int, v int) []int {
		for _, w := range dst[off[v]:off[v+1]] {
			if inSet[w] {
				buf = append(buf, w)
			}
		}
		return buf
	}

	onPath := make([]bool, len(g.Nodes))
	var countDesc func(v int) int
	countDesc = func(v int) int {
		if desc[v] >= 0 {
			return desc[v]
		}
		if onPath[v] {
			return 0 // cycle guard
		}
		onPath[v] = true
		n := 0
		for _, w := range dst[off[v]:off[v+1]] {
			if inSet[w] {
				n += 1 + countDesc(w)
			}
		}
		onPath[v] = false
		desc[v] = n
		return n
	}

	roots := make([]int, 0, len(kernels))
	for _, v := range kernels {
		if indeg[v] == 0 {
			roots = append(roots, v)
		}
	}
	sort.Ints(roots)

	order := make([]int, 0, len(kernels))
	seen := make([]bool, len(g.Nodes))
	// stack holds the children of every node on the walk's path, each
	// node's after its parent's: a frame only appends past its own.
	var stack []int
	var dfs func(v int)
	dfs = func(v int) {
		if seen[v] {
			return
		}
		seen[v] = true
		order = append(order, v)
		base := len(stack)
		stack = children(stack, v)
		next := stack[base:]
		slices.SortFunc(next, func(a, b int) int {
			if da, db := countDesc(a), countDesc(b); da != db {
				return cmp.Compare(da, db)
			}
			return cmp.Compare(a, b)
		})
		for _, w := range next {
			dfs(w)
		}
		stack = stack[:base]
	}
	for _, r := range roots {
		dfs(r)
	}
	for _, v := range kernels { // cycle leftovers
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}

// refine performs greedy single-kernel moves between adjacent parts when a
// move strictly reduces the number of crossing edges and keeps parts
// non-empty.
func refine(g *graph.Graph, parts [][]int, inSet []bool) {
	partOf := make([]int, len(g.Nodes))
	for pi, p := range parts {
		for _, v := range p {
			partOf[v] = pi
		}
	}
	cross := func(v, pi int) int {
		// Crossing edges incident to v if v were in part pi.
		n := 0
		for _, e := range g.Edges {
			if !inSet[e.Src] || !inSet[e.Dst] {
				continue
			}
			var other int
			switch v {
			case e.Src:
				other = e.Dst
			case e.Dst:
				other = e.Src
			default:
				continue
			}
			if partOf[other] != pi {
				n++
			}
		}
		return n
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for pi := range parts {
			for _, dir := range []int{-1, 1} {
				pj := pi + dir
				if pj < 0 || pj >= len(parts) {
					continue
				}
				if len(parts[pi]) <= 1 {
					continue
				}
				// Try moving each boundary kernel of pi into pj.
				for idx := 0; idx < len(parts[pi]); idx++ {
					v := parts[pi][idx]
					if cross(v, pj) < cross(v, pi) {
						parts[pi] = append(parts[pi][:idx], parts[pi][idx+1:]...)
						parts[pj] = append(parts[pj], v)
						partOf[v] = pj
						improved = true
						idx--
						if len(parts[pi]) <= 1 {
							break
						}
					}
				}
			}
		}
		if !improved {
			break
		}
	}
}

// EvenSpread assigns kernels round-robin across places — the paper's
// no-latency-difference fallback, used standalone as an A6 baseline.
func EvenSpread(g *graph.Graph, t Topology) Assignment {
	a := make(Assignment, len(g.Nodes))
	for i := range a {
		a[i] = t.Places[i%len(t.Places)].ID
	}
	return a
}

// Random assigns kernels uniformly at random (seeded, reproducible) — the
// other A6 baseline.
func Random(g *graph.Graph, t Topology, seed int64) Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := make(Assignment, len(g.Nodes))
	for i := range a {
		a[i] = t.Places[rng.Intn(len(t.Places))].ID
	}
	return a
}
