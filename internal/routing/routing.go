// Package routing assigns physical ring paths to logical requests and
// decides the disjoint routing constraint (DRC) for arbitrary cycles.
//
// Package cover works with cycles already in ring order, where the
// canonical clockwise routing is trivially edge-disjoint. This package
// handles the general question the paper's worked example raises: given a
// cycle specified as an arbitrary vertex *sequence* (a Tour), does ANY
// assignment of arcs to its requests exist that is pairwise edge-disjoint?
// It provides both an exhaustive decision procedure and the O(k) structural
// criterion (ring-order test), and the test suite proves them equivalent on
// small rings — the computational certificate for Fact A of DESIGN.md.
package routing

import (
	"fmt"

	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// Route is the assignment of one request to one of the two arcs between
// its endpoints.
type Route struct {
	Request graph.Edge
	Arc     ring.Arc
}

// String renders the route for diagnostics.
func (rt Route) String() string {
	return fmt.Sprintf("%v via %v", rt.Request, rt.Arc)
}

// Disjoint reports whether the routes are pairwise link-disjoint.
func Disjoint(r ring.Ring, routes []Route) bool {
	load := make([]int, r.Links())
	for _, rt := range routes {
		for _, l := range rt.Arc.Links(r) {
			if load[l] > 0 {
				return false
			}
			load[l]++
		}
	}
	return true
}

// LinkLoads returns, for each ring link, how many routes traverse it.
func LinkLoads(r ring.Ring, routes []Route) []int {
	load := make([]int, r.Links())
	for _, rt := range routes {
		for _, l := range rt.Arc.Links(r) {
			load[l]++
		}
	}
	return load
}

// Tour is a cycle given as an explicit vertex sequence v_0 → v_1 → … →
// v_{k-1} → v_0. Unlike cover.Cycle it is NOT canonicalised: the order
// matters, because a tour that visits vertices out of ring order has no
// disjoint routing.
type Tour []int

// Requests returns the tour's symmetric requests: each consecutive pair in
// sequence order.
func (t Tour) Requests() []graph.Edge {
	k := len(t)
	reqs := make([]graph.Edge, 0, k)
	for i := 0; i < k; i++ {
		reqs = append(reqs, graph.NewEdge(t[i], t[(i+1)%k]))
	}
	return reqs
}

// Validate checks that the tour has at least three vertices, all distinct
// and on the ring.
func (t Tour) Validate(r ring.Ring) error {
	if len(t) < 3 {
		return fmt.Errorf("routing: tour %v shorter than 3", []int(t))
	}
	seen := make(map[int]bool, len(t))
	for _, v := range t {
		if !r.Valid(v) {
			return fmt.Errorf("routing: tour vertex %d outside ring of size %d", v, r.N())
		}
		if seen[v] {
			return fmt.Errorf("routing: tour %v repeats vertex %d", []int(t), v)
		}
		seen[v] = true
	}
	return nil
}

// IsRingOrdered reports whether the tour visits its vertices in ring
// cyclic order, clockwise or counter-clockwise — the structural criterion
// for DRC-routability. It runs in O(k) after normalising the start.
func (t Tour) IsRingOrdered(r ring.Ring) bool {
	_, ok := t.ringDirection(r)
	return ok
}

// ringDirection is IsRingOrdered that also reports the direction of
// travel, summing the clockwise gaps once for both answers.
func (t Tour) ringDirection(r ring.Ring) (clockwise, ok bool) {
	k := len(t)
	if k < 3 {
		return false, false
	}
	// Clockwise: the gaps t[i] → t[i+1] must sum to exactly n; they always
	// sum to a positive multiple of n, and equal n exactly when the tour
	// wraps once, i.e. visits in clockwise ring order.
	cw := 0
	for i := 0; i < k; i++ {
		cw += r.Gap(t[i], t[(i+1)%k])
	}
	if cw == r.N() {
		return true, true
	}
	// Counter-clockwise: same test on the reversed tour.
	ccw := 0
	for i := 0; i < k; i++ {
		ccw += r.Gap(t[(i+1)%k], t[i])
	}
	return false, ccw == r.N()
}

// CanonicalRouting returns the edge-disjoint routing of a ring-ordered
// tour: each consecutive pair uses the arc in the tour's direction of
// travel. ok is false if the tour is not ring-ordered (no disjoint routing
// exists, per the structure theorem).
func (t Tour) CanonicalRouting(r ring.Ring) ([]Route, bool) {
	clockwise, ok := t.ringDirection(r)
	if !ok {
		return nil, false
	}
	k := len(t)
	routes := make([]Route, 0, k)
	for i := 0; i < k; i++ {
		u, v := t[i], t[(i+1)%k]
		a := r.ArcBetween(u, v)
		if !clockwise {
			a = r.ArcBetween(v, u)
		}
		routes = append(routes, Route{Request: graph.NewEdge(u, v), Arc: a})
	}
	return routes, true
}

// FindDisjointRouting searches exhaustively over the 2^k arc assignments
// for a pairwise link-disjoint routing of the tour's requests, returning
// one if it exists. It is exponential and intended for verification and
// small instances; the structural path is CanonicalRouting. The search
// backtracks on link conflicts, so in practice it terminates quickly.
func (t Tour) FindDisjointRouting(r ring.Ring) ([]Route, bool) {
	reqs := t.Requests()
	routes := make([]Route, len(reqs))
	load := make([]int, r.Links())

	var place func(i int) bool
	place = func(i int) bool {
		if i == len(reqs) {
			return true
		}
		req := reqs[i]
		for _, a := range []ring.Arc{r.ArcBetween(req.U, req.V), r.ArcBetween(req.V, req.U)} {
			if fits(r, load, a) {
				apply(r, load, a, +1)
				routes[i] = Route{Request: req, Arc: a}
				if place(i + 1) {
					return true
				}
				apply(r, load, a, -1)
			}
		}
		return false
	}
	if !place(0) {
		return nil, false
	}
	return routes, true
}

// HasDisjointRouting decides the DRC for the tour. It uses the O(k)
// structural criterion; TestStructuralMatchesExhaustive proves it agrees
// with FindDisjointRouting.
func (t Tour) HasDisjointRouting(r ring.Ring) bool { return t.IsRingOrdered(r) }

func fits(r ring.Ring, load []int, a ring.Arc) bool {
	for _, l := range a.Links(r) {
		if load[l] > 0 {
			return false
		}
	}
	return true
}

func apply(r ring.Ring, load []int, a ring.Arc, delta int) {
	for _, l := range a.Links(r) {
		load[l] += delta
	}
}
