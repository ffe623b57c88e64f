package graph

import (
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	if e := NewEdge(5, 2); e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want {2,5}", e)
	}
	if e := NewEdge(1, 3); e != NewEdge(3, 1) {
		t.Error("NewEdge must canonicalise order")
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge(4,4): want panic")
		}
	}()
	NewEdge(4, 4)
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(2, 7)
	if w, ok := e.Other(2); !ok || w != 7 {
		t.Errorf("Other(2) = %d,%v", w, ok)
	}
	if w, ok := e.Other(7); !ok || w != 2 {
		t.Errorf("Other(7) = %d,%v", w, ok)
	}
	if _, ok := e.Other(3); ok {
		t.Error("Other(3): want ok=false")
	}
}

func TestCompleteGraphCounts(t *testing.T) {
	for _, n := range []int{3, 4, 7, 10} {
		g := Complete(n)
		want := n * (n - 1) / 2
		if g.M() != want {
			t.Errorf("K%d: M = %d, want %d", n, g.M(), want)
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != n-1 {
				t.Errorf("K%d: deg(%d) = %d, want %d", n, v, g.Degree(v), n-1)
			}
		}
	}
}

func TestLambdaComplete(t *testing.T) {
	g := LambdaComplete(5, 3)
	if g.M() != 3*10 {
		t.Errorf("3K5: M = %d, want 30", g.M())
	}
	if g.Multiplicity(1, 4) != 3 {
		t.Errorf("3K5: mult(1,4) = %d, want 3", g.Multiplicity(1, 4))
	}
	if g.DistinctEdges() != 10 {
		t.Errorf("3K5: distinct = %d, want 10", g.DistinctEdges())
	}
}

func TestCycleGraph(t *testing.T) {
	g := Cycle(6)
	if g.M() != 6 {
		t.Errorf("C6: M = %d, want 6", g.M())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("C6: deg(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if !g.HasEdge(5, 0) {
		t.Error("C6 must wrap: edge {5,0}")
	}
}

func TestAddRemove(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.Multiplicity(0, 1) != 2 || g.M() != 2 {
		t.Fatalf("after two adds: mult=%d m=%d", g.Multiplicity(0, 1), g.M())
	}
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0): want true")
	}
	if g.Multiplicity(0, 1) != 1 {
		t.Fatalf("mult = %d, want 1", g.Multiplicity(0, 1))
	}
	if !g.RemoveEdge(0, 1) || g.RemoveEdge(0, 1) {
		t.Fatal("second remove must succeed, third must fail")
	}
	if g.M() != 0 || g.Degree(0) != 0 || g.Degree(1) != 0 {
		t.Fatal("graph must be empty after removals")
	}
	if g.RemoveEdge(2, 2) {
		t.Fatal("RemoveEdge on self pair must be false")
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(5)
	g.AddEdge(3, 1)
	g.AddEdge(0, 4)
	g.AddEdge(0, 2)
	es := g.Edges()
	want := []Edge{{0, 2}, {0, 4}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", es, want)
		}
	}
}

func TestEdgesWithMultiplicity(t *testing.T) {
	g := New(3)
	g.AddEdgeMulti(0, 1, 2)
	g.AddEdge(1, 2)
	es := g.EdgesWithMultiplicity()
	if len(es) != 3 {
		t.Fatalf("EdgesWithMultiplicity = %v, want 3 entries", es)
	}
	if es[0] != NewEdge(0, 1) || es[1] != NewEdge(0, 1) || es[2] != NewEdge(1, 2) {
		t.Fatalf("EdgesWithMultiplicity = %v", es)
	}
}

func TestNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(1, 3)
	ns := g.Neighbors(2)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 4 {
		t.Errorf("Neighbors(2) = %v, want [0 4]", ns)
	}
	if len(g.Neighbors(0)) != 1 {
		t.Errorf("Neighbors(0) = %v", g.Neighbors(0))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Complete(4)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("clone mutation leaked into original")
	}
	if c.M() != g.M()-1 {
		t.Errorf("clone M = %d, want %d", c.M(), g.M()-1)
	}
}

func TestIsSubgraphOf(t *testing.T) {
	k4 := Complete(4)
	c4 := Cycle(4)
	if !c4.IsSubgraphOf(k4) {
		t.Error("C4 ⊆ K4: want true")
	}
	if k4.IsSubgraphOf(c4) {
		t.Error("K4 ⊆ C4: want false")
	}
	two := New(3)
	two.AddEdgeMulti(0, 1, 2)
	one := New(3)
	one.AddEdge(0, 1)
	if two.IsSubgraphOf(one) {
		t.Error("multiplicity must be respected")
	}
	if !one.IsSubgraphOf(two) {
		t.Error("single edge ⊆ double edge")
	}
}

func TestConnected(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.Connected(false) {
		t.Error("isolated vertices present: want not connected")
	}
	if !g.Connected(true) {
		t.Error("ignoring isolated vertices: want connected")
	}
	g.AddEdge(3, 4)
	if g.Connected(true) {
		t.Error("two components: want not connected")
	}
	if !New(0).Connected(false) || !New(3).Connected(true) {
		t.Error("empty graphs count as connected")
	}
}

func TestEveryDegreeEven(t *testing.T) {
	if !Cycle(5).EveryDegreeEven() {
		t.Error("cycle degrees are even")
	}
	if Complete(4).EveryDegreeEven() {
		t.Error("K4 has odd degrees")
	}
	if !Complete(5).EveryDegreeEven() {
		t.Error("K5 has even degrees")
	}
}

func TestEulerCircuitOnCycle(t *testing.T) {
	g := Cycle(7)
	walk, ok := g.EulerCircuit()
	if !ok {
		t.Fatal("C7 has an Euler circuit")
	}
	if len(walk) != 8 || walk[0] != walk[len(walk)-1] {
		t.Fatalf("walk = %v: want closed walk of 8 vertices", walk)
	}
	// Each ring edge used exactly once.
	used := map[Edge]int{}
	for i := 0; i+1 < len(walk); i++ {
		used[NewEdge(walk[i], walk[i+1])]++
	}
	for _, e := range g.Edges() {
		if used[e] != 1 {
			t.Errorf("edge %v used %d times", e, used[e])
		}
	}
}

func TestEulerCircuitConditions(t *testing.T) {
	if _, ok := Complete(4).EulerCircuit(); ok {
		t.Error("K4: odd degrees, no Euler circuit")
	}
	disconnected := New(6)
	disconnected.AddEdge(0, 1)
	disconnected.AddEdge(1, 0) // doubled edge, even degrees
	disconnected.AddEdge(3, 4)
	disconnected.AddEdge(4, 3)
	if _, ok := disconnected.EulerCircuit(); ok {
		t.Error("disconnected even graph has no single Euler circuit")
	}
	if _, ok := New(3).EulerCircuit(); ok {
		t.Error("empty graph: no circuit")
	}
}

func TestEulerCircuitK5Property(t *testing.T) {
	// K_{2p+1} is Eulerian; the circuit must traverse every edge once.
	for _, n := range []int{5, 7, 9} {
		g := Complete(n)
		walk, ok := g.EulerCircuit()
		if !ok {
			t.Fatalf("K%d must be Eulerian", n)
		}
		if len(walk) != g.M()+1 {
			t.Fatalf("K%d: walk length %d, want %d", n, len(walk), g.M()+1)
		}
		used := map[Edge]int{}
		for i := 0; i+1 < len(walk); i++ {
			used[NewEdge(walk[i], walk[i+1])]++
		}
		for _, e := range g.Edges() {
			if used[e] != 1 {
				t.Fatalf("K%d: edge %v used %d times", n, e, used[e])
			}
		}
	}
}

func TestSubgraphProperty(t *testing.T) {
	// Removing any edge of a graph keeps it a subgraph of the original.
	f := func(seed uint8) bool {
		g := Complete(6)
		es := g.Edges()
		e := es[int(seed)%len(es)]
		h := g.Clone()
		h.RemoveEdge(e.U, e.V)
		return h.IsSubgraphOf(g) && !g.IsSubgraphOf(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckPanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Degree(7): want panic")
		}
	}()
	g.Degree(7)
}

// TestNilGraphReadAccessors pins the nil-safety contract stated on N:
// every read accessor answers emptiness on a nil graph — the demand of
// a zero-value instance — instead of panicking.
func TestNilGraphReadAccessors(t *testing.T) {
	var g *Graph
	if g.N() != 0 || g.M() != 0 || g.DistinctEdges() != 0 {
		t.Error("nil graph sizes must be 0")
	}
	if g.Degree(0) != 0 || g.Multiplicity(0, 1) != 0 || g.HasEdge(0, 1) {
		t.Error("nil graph membership checks must report emptiness")
	}
	if g.Edges() != nil || g.EdgesWithMultiplicity() != nil || g.Neighbors(0) != nil {
		t.Error("nil graph enumerations must be nil")
	}
}

// TestUniformMult pins the λK_n scan behind construct.UniformLambda.
func TestUniformMult(t *testing.T) {
	broken := LambdaComplete(6, 2)
	broken.RemoveEdge(4, 5)
	for _, c := range []struct {
		name string
		g    *Graph
		k    int
		ok   bool
	}{
		{"nil", nil, 0, false},
		{"one vertex", New(1), 0, false},
		{"edgeless", New(5), 0, true},
		{"K_7", Complete(7), 1, true},
		{"3K_5", LambdaComplete(5, 3), 3, true},
		{"2K_6 minus one parallel edge", broken, 0, false},
		{"C_5", Cycle(5), 0, false},
	} {
		if k, ok := c.g.UniformMult(); k != c.k || ok != c.ok {
			t.Errorf("%s: UniformMult = (%d, %v), want (%d, %v)", c.name, k, ok, c.k, c.ok)
		}
	}
}
