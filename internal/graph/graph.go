// Package graph provides the streaming-topology representation and the
// structural checks the runtime performs before execution.
//
// The paper (§4.2): "When the user runs the exe() function of map object,
// the graph is first checked to ensure it is fully connected, then type
// checking is performed across each link." This package implements those
// checks (connectivity, endpoint/type validation hooks, source/sink
// existence, cycle detection) over a lightweight node/edge model that is
// independent of kernel types.
package graph

import (
	"fmt"
	"sort"
)

// Node is one compute kernel in the topology.
type Node struct {
	ID   int
	Name string
	// Weight is a relative cost estimate used by the mapper.
	Weight float64
}

// Edge is one stream between two kernels.
type Edge struct {
	ID       int
	Src, Dst int // node IDs
	SrcPort  string
	DstPort  string
	// TypeName is the element type carried by the stream, used for
	// link type checking.
	TypeName string
	// Weight is an estimated data rate used by the mapper (default 1).
	Weight float64
}

// Graph is a directed multigraph of kernels and streams.
type Graph struct {
	Nodes []Node
	Edges []Edge
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(name string, weight float64) int {
	id := len(g.Nodes)
	if weight <= 0 {
		weight = 1
	}
	g.Nodes = append(g.Nodes, Node{ID: id, Name: name, Weight: weight})
	return id
}

// AddEdge appends an edge and returns its ID.
func (g *Graph) AddEdge(src, dst int, srcPort, dstPort, typeName string, weight float64) int {
	id := len(g.Edges)
	if weight <= 0 {
		weight = 1
	}
	g.Edges = append(g.Edges, Edge{
		ID: id, Src: src, Dst: dst,
		SrcPort: srcPort, DstPort: dstPort,
		TypeName: typeName, Weight: weight,
	})
	return id
}

// Out returns the IDs of edges leaving node n.
func (g *Graph) Out(n int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.Src == n {
			out = append(out, e.ID)
		}
	}
	return out
}

// In returns the IDs of edges entering node n.
func (g *Graph) In(n int) []int {
	var in []int
	for _, e := range g.Edges {
		if e.Dst == n {
			in = append(in, e.ID)
		}
	}
	return in
}

// Sources returns nodes with no inbound edges, sorted by ID.
func (g *Graph) Sources() []int {
	return g.degreeZero(func(e Edge) int { return e.Dst })
}

// Sinks returns nodes with no outbound edges, sorted by ID.
func (g *Graph) Sinks() []int {
	return g.degreeZero(func(e Edge) int { return e.Src })
}

func (g *Graph) degreeZero(endpoint func(Edge) int) []int {
	has := make([]bool, len(g.Nodes))
	for _, e := range g.Edges {
		has[endpoint(e)] = true
	}
	var out []int
	for id := range g.Nodes {
		if !has[id] {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// TopoSort returns a topological ordering of node IDs, or an error naming a
// node on a cycle. Streaming graphs executed by the runtime must be acyclic
// (a cycle of blocking FIFOs can deadlock), so exe() rejects cycles.
func (g *Graph) TopoSort() ([]int, error) {
	off, dst := g.Successors()
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	// Kahn's algorithm with order as its own FIFO queue, seeded with the
	// sources in ID order.
	order := make([]int, 0, len(g.Nodes))
	for id := range g.Nodes {
		if indeg[id] == 0 {
			order = append(order, id)
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, w := range dst[off[v]:off[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		for id, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("graph: cycle involving kernel %q", g.Nodes[id].Name)
			}
		}
	}
	return order, nil
}

// Successors returns the graph's adjacency in compressed form: the
// successors of node v are dst[off[v]:off[v+1]], one per edge, in edge
// order. It makes two allocations, whatever the size of the graph.
func (g *Graph) Successors() (off, dst []int) {
	off = make([]int, len(g.Nodes)+1)
	for _, e := range g.Edges {
		off[e.Src+1]++
	}
	for v := range g.Nodes {
		off[v+1] += off[v]
	}
	// Fill with off[v] as v's cursor, which leaves it at v's end, the
	// start of v+1; shifting by one restores the starts.
	dst = make([]int, len(g.Edges))
	for _, e := range g.Edges {
		dst[off[e.Src]] = e.Dst
		off[e.Src]++
	}
	copy(off[1:], off[:len(g.Nodes)])
	off[0] = 0
	return off, dst
}

// Verify runs the paper's pre-execution structural checks: the graph must
// be non-empty and acyclic, and every kernel must lie on a path fed by a
// source and draining to a sink (isolated kernels are rejected; a map may
// legitimately hold several independent pipelines, so multiple weakly
// connected components are allowed as long as each is well formed —
// port-level completeness is checked separately by the runtime).
func (g *Graph) Verify() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("graph: no kernels linked")
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	if len(g.Sources()) == 0 {
		return fmt.Errorf("graph: no source kernel (every kernel has inputs)")
	}
	if len(g.Sinks()) == 0 {
		return fmt.Errorf("graph: no sink kernel (every kernel has outputs)")
	}
	// A node that is both a source and a sink is isolated: it was added to
	// the topology but never linked.
	hasIn := make([]bool, len(g.Nodes))
	hasOut := make([]bool, len(g.Nodes))
	for _, e := range g.Edges {
		hasIn[e.Dst] = true
		hasOut[e.Src] = true
	}
	for id := range g.Nodes {
		if !hasIn[id] && !hasOut[id] {
			return fmt.Errorf("graph: kernel %q is isolated (no streams attached)", g.Nodes[id].Name)
		}
	}
	return nil
}
