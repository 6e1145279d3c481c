package graph

import (
	"reflect"
	"testing"
)

// pipeline builds a linear chain a -> b -> c ... of n nodes.
func pipeline(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a'+i)), 1)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, "out", "in", "int", 1)
	}
	return g
}

func TestAddNodeDefaults(t *testing.T) {
	g := &Graph{}
	id := g.AddNode("k", 0)
	if id != 0 || g.Nodes[0].Weight != 1 {
		t.Fatalf("node = %+v", g.Nodes[0])
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g := pipeline(4)
	if got := g.Sources(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("sources = %v", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("sinks = %v", got)
	}
}

func TestInOutEdges(t *testing.T) {
	g := pipeline(3)
	if got := g.Out(0); len(got) != 1 || g.Edges[got[0]].Dst != 1 {
		t.Fatalf("out(0) = %v", got)
	}
	if got := g.In(2); len(got) != 1 || g.Edges[got[0]].Src != 1 {
		t.Fatalf("in(2) = %v", got)
	}
	if got := g.In(0); got != nil {
		t.Fatalf("in(0) = %v", got)
	}
}

func TestTopoSortOrder(t *testing.T) {
	// Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
	g := &Graph{}
	for i := 0; i < 4; i++ {
		g.AddNode("n", 1)
	}
	g.AddEdge(0, 1, "", "", "t", 1)
	g.AddEdge(0, 2, "", "", "t", 1)
	g.AddEdge(1, 3, "", "", "t", 1)
	g.AddEdge(2, 3, "", "", "t", 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges {
		if pos[e.Src] >= pos[e.Dst] {
			t.Fatalf("edge %d->%d violates topo order %v", e.Src, e.Dst, order)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := pipeline(3)
	g.AddEdge(2, 0, "back", "in", "int", 1)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle must be detected")
	}
	if err := g.Verify(); err == nil {
		t.Fatal("Verify must reject cycles")
	}
}

func TestVerifyAcceptsPipeline(t *testing.T) {
	if err := pipeline(4).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsEmpty(t *testing.T) {
	if err := (&Graph{}).Verify(); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

func TestVerifyRejectsIsolatedKernel(t *testing.T) {
	g := pipeline(2)
	g.AddNode("island", 1)
	if err := g.Verify(); err == nil {
		t.Fatal("isolated kernel must be rejected")
	}
}

func TestVerifyAllowsIndependentPipelines(t *testing.T) {
	// Two disjoint pipelines in one map are a legitimate program.
	g := pipeline(2)
	a := g.AddNode("src2", 1)
	b := g.AddNode("sink2", 1)
	g.AddEdge(a, b, "out", "in", "int", 1)
	if err := g.Verify(); err != nil {
		t.Fatalf("independent pipelines rejected: %v", err)
	}
}

func TestVerifyRequiresSourceAndSink(t *testing.T) {
	// Two nodes in a 2-cycle: no source, no sink, and cyclic.
	g := &Graph{}
	g.AddNode("a", 1)
	g.AddNode("b", 1)
	g.AddEdge(0, 1, "", "", "t", 1)
	g.AddEdge(1, 0, "", "", "t", 1)
	if err := g.Verify(); err == nil {
		t.Fatal("cyclic source-less graph must be rejected")
	}
}
