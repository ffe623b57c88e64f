package graph

// This file is the 2-edge-connectivity layer of the graph core, added for
// the general-topology instance family: the cycle-cover literature this
// repo tracks (short cycle covers of bridgeless cubic graphs, snark
// covers) is stated on bridgeless graphs, because a bridge lies on no
// cycle and therefore defeats any cycle cover. Instance admission
// (instance.General) rejects bridged hosts with these checks rather than
// letting construction fail downstream.

// MinDegree returns the smallest vertex degree (with multiplicity); 0 for
// a nil or empty graph.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.deg[0]
	for _, d := range g.deg[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// IsCubic reports whether every vertex has degree exactly 3 — the graph
// class of the short-cycle-cover literature (Kaiser et al., Hägglund &
// Markström). False for nil and empty graphs.
func (g *Graph) IsCubic() bool {
	if g.N() == 0 {
		return false
	}
	for _, d := range g.deg {
		if d != 3 {
			return false
		}
	}
	return true
}

// FindBridge returns a bridge of the graph — an edge whose removal
// disconnects its component — and ok = true when one exists. Parallel
// edges are never bridges (removing one copy leaves the other), so only
// pairs with multiplicity 1 qualify. The scan is an iterative Tarjan
// low-link DFS over every component; with several bridges present, which
// one is returned is deterministic (lowest-numbered DFS root first,
// ascending neighbor order).
func (g *Graph) FindBridge() (Edge, bool) {
	n := g.N()
	if n == 0 {
		return Edge{}, false
	}
	disc := make([]int, n) // discovery time, 0 = unvisited
	low := make([]int, n)  // low-link
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	time := 0

	// Explicit stack: frame (vertex, index into its neighbor list). The
	// neighbor list is materialized per frame; host graphs at this layer
	// are small (instance admission bounds them) and the check runs once
	// per parse, not on a hot path.
	type frame struct {
		v    int
		nbrs []int
		next int
	}
	var bridge Edge
	found := false
	for root := 0; root < n && !found; root++ {
		if disc[root] != 0 {
			continue
		}
		time++
		disc[root] = time
		low[root] = time
		stack := []frame{{v: root, nbrs: g.Neighbors(root)}}
		for len(stack) > 0 && !found {
			f := &stack[len(stack)-1]
			if f.next < len(f.nbrs) {
				w := f.nbrs[f.next]
				f.next++
				if disc[w] == 0 {
					parent[w] = f.v
					time++
					disc[w] = time
					low[w] = time
					stack = append(stack, frame{v: w, nbrs: g.Neighbors(w)})
				} else if w != parent[f.v] || g.Mult(f.v, w) > 1 {
					// Back edge — or the tree edge seen again through a
					// parallel copy, which legitimately lowers low.
					if disc[w] < low[f.v] {
						low[f.v] = disc[w]
					}
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[f.v]; p != -1 {
				if low[f.v] < low[p] {
					low[p] = low[f.v]
				}
				if low[f.v] > disc[p] && g.Mult(p, f.v) == 1 {
					bridge = NewEdge(p, f.v)
					found = true
				}
			}
		}
	}
	return bridge, found
}

// Bridgeless reports whether the graph has no bridge. Vacuously true for
// edgeless graphs; combine with Connected for the admission check of the
// general-topology instance family.
func (g *Graph) Bridgeless() bool {
	_, found := g.FindBridge()
	return !found
}
