// Package wdm models the optical layer the paper plans: a WDM ring whose
// survivable design is a DRC cycle covering. Each cycle of the covering
// becomes an independent subnetwork and is assigned two wavelengths — one
// for normal traffic, one for the spare capacity used after a failure —
// exactly as the paper prescribes ("we will associate a wavelength to each
// cycle (in fact two: one for the normal traffic and one for the spare
// one)").
//
// Because a DRC cycle's working routing tiles the entire ring (its arcs
// partition the links), any two cycles conflict on every link, so
// wavelengths cannot be reused between cycles: the network needs exactly
// 2·(number of cycles) wavelengths. That is the formal content of the
// paper's remark that, on a ring, minimising network cost means minimising
// the number of subnetworks — which is what ρ(n) captures.
//
// Planning is linear: Plan makes one pass over the cycles' consecutive
// pairs, O(Σ|C| + n) where Σ|C| is the covering's total vertex count, and
// in that pass assigns every demand pair and counts each vertex's cycles.
// The network facts the paper prices — ADMs, per-vertex and maximum
// optical transit, the cost model's total transit — are stored on the
// Network then, so their accessors are O(1) and allocation-free. A planned
// Network is immutable: nothing mutates it after Plan returns, so caches
// share one value across concurrent readers.
package wdm

import (
	"fmt"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/routing"
)

// Wavelength identifies one wavelength channel on the ring.
type Wavelength int

// Subnetwork is one protected cycle of the design: a cycle of the
// covering, its two wavelengths, and the working routes of the requests it
// carries.
type Subnetwork struct {
	Index   int
	Cycle   cover.Cycle
	Working Wavelength
	Spare   Wavelength
	Routes  []routing.Route // canonical working routing; arcs tile the ring
}

// Network is a planned survivable WDM ring: the physical ring, the demand
// it serves, and one subnetwork per covering cycle. Every demand pair is
// assigned to exactly one subnetwork (the first cycle covering it). The
// facts behind ADMCount, TransitAt, MaxTransit and CostModel.Cost are
// computed once by Plan; a Network must come from Plan and must not be
// modified afterwards.
type Network struct {
	Ring       ring.Ring
	Demand     *graph.Graph
	Subnets    []Subnetwork
	Assignment map[graph.Edge]int // demand pair → subnetwork index

	adms         int   // Σ|C|: one ADM per (node, subnetwork) incidence
	transit      []int // transit[v] = 2·(cycles − cycles through v)
	maxTransit   int
	totalTransit int
}

// Plan builds the network design for a demand graph and a covering. It
// fails if the covering does not cover the demand or violates the DRC.
// After verification it runs in O(Σ|C| + n): one pass over each cycle's
// consecutive pairs assigns the demand and counts vertex incidences.
func Plan(cv *cover.Covering, demand *graph.Graph) (*Network, error) {
	if err := cover.Verify(cv, demand); err != nil {
		return nil, fmt.Errorf("wdm: covering rejected: %w", err)
	}
	nw := &Network{
		Ring:       cv.Ring,
		Demand:     demand,
		Subnets:    make([]Subnetwork, 0, len(cv.Cycles)),
		Assignment: make(map[graph.Edge]int, demand.DistinctEdges()),
	}
	dn := demand.N()                    // may be smaller than the ring
	transit := make([]int, cv.Ring.N()) // cycles through v, then transit at v
	for i, c := range cv.Cycles {
		vs := c.Vertices()
		routes, ok := routing.Tour(vs).CanonicalRouting(cv.Ring)
		if !ok {
			return nil, fmt.Errorf("wdm: cycle %v is not DRC-routable", c)
		}
		nw.Subnets = append(nw.Subnets, Subnetwork{
			Index:   i,
			Cycle:   c,
			Working: Wavelength(2 * i),
			Spare:   Wavelength(2*i + 1),
			Routes:  routes,
		})
		nw.adms += len(vs)
		// The cycle covers exactly its cyclically consecutive pairs; a
		// demanded pair keeps the first subnetwork that covers it.
		prev := vs[len(vs)-1]
		for _, v := range vs {
			transit[v]++
			u := prev
			prev = v
			if u >= dn || v >= dn || !demand.HasEdge(u, v) {
				continue
			}
			e := graph.NewEdge(u, v)
			if _, done := nw.Assignment[e]; !done {
				nw.Assignment[e] = i
			}
		}
	}
	if missing := demand.DistinctEdges() - len(nw.Assignment); missing > 0 {
		// Unreachable given Verify above; kept as a hard invariant.
		return nil, fmt.Errorf("wdm: %d demands unassigned despite verified covering", missing)
	}
	// Both wavelengths of every subnetwork not through v pass v optically.
	for v, k := range transit {
		t := 2 * (len(nw.Subnets) - k)
		transit[v] = t
		nw.totalTransit += t
		if t > nw.maxTransit {
			nw.maxTransit = t
		}
	}
	nw.transit = transit
	return nw, nil
}

// Wavelengths returns the number of wavelength channels the design needs:
// two per subnetwork (working + spare), with no reuse possible since every
// subnetwork's routing tiles the whole ring.
//
//cyclecover:noalloc
func (nw *Network) Wavelengths() int { return 2 * len(nw.Subnets) }

// ADMCount returns the number of add-drop multiplexers: one per
// (node, subnetwork) incidence — a node needs an ADM on a subnetwork's
// wavelength exactly when it terminates traffic there, i.e. when it lies
// on the cycle. This equals the covering's total vertex count, the
// objective of Eilam–Moran–Zaks [3] and Gerstel–Lin–Sasaki [4]; the
// comparison experiment C2 contrasts it with the paper's cycle-count
// objective.
//
//cyclecover:noalloc
func (nw *Network) ADMCount() int { return nw.adms }

// TransitAt returns the number of wavelength channels passing through node
// v purely optically: both wavelengths of every subnetwork whose cycle
// does not include v (the working path and its spare traverse every node
// of the ring, but only cycle members add/drop). A v off the ring lies on
// no cycle.
//
//cyclecover:noalloc
func (nw *Network) TransitAt(v int) int {
	if v < 0 || v >= len(nw.transit) {
		return nw.Wavelengths()
	}
	return nw.transit[v]
}

// MaxTransit returns the maximum optical transit load over all nodes — a
// driver of optical-node cost in the paper's cost discussion.
//
//cyclecover:noalloc
func (nw *Network) MaxTransit() int { return nw.maxTransit }

// SubnetworkFor returns the subnetwork serving the request {u,v}; ok is
// false when the pair is not a demand.
func (nw *Network) SubnetworkFor(u, v int) (Subnetwork, bool) {
	i, ok := nw.Assignment[graph.NewEdge(u, v)]
	if !ok {
		return Subnetwork{}, false
	}
	return nw.Subnets[i], true
}

// WorkingArc returns the arc carrying the request {u,v} in normal
// operation: the canonical routing arc of its subnetwork.
func (nw *Network) WorkingArc(u, v int) (ring.Arc, bool) {
	s, ok := nw.SubnetworkFor(u, v)
	if !ok {
		return ring.Arc{}, false
	}
	e := graph.NewEdge(u, v)
	for _, rt := range s.Routes {
		if rt.Request == e {
			return rt.Arc, true
		}
	}
	return ring.Arc{}, false
}

// CostModel is the linear form of the paper's "very complex" cost
// function: per-wavelength line cost, per-ADM equipment cost, per-transit
// optical port cost, and per-link-per-wavelength amplification cost.
type CostModel struct {
	PerWavelength float64
	PerADM        float64
	PerTransit    float64
	PerLinkChan   float64 // amplification/regeneration per link per channel
}

// DefaultCostModel uses unit weights that reflect the paper's emphasis:
// wavelengths and ADMs dominate, transit and amplification contribute.
var DefaultCostModel = CostModel{
	PerWavelength: 10,
	PerADM:        4,
	PerTransit:    1,
	PerLinkChan:   0.5,
}

// Cost evaluates the model on a planned network from its stored facts.
//
//cyclecover:noalloc
func (m CostModel) Cost(nw *Network) float64 {
	channels := float64(nw.Wavelengths() * nw.Ring.Links())
	return m.PerWavelength*float64(nw.Wavelengths()) +
		m.PerADM*float64(nw.ADMCount()) +
		m.PerTransit*float64(nw.totalTransit) +
		m.PerLinkChan*channels
}
