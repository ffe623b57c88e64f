package wdm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// The reference below is the quadratic definition of every planned fact,
// written straight from the model and sharing no code with Plan's single
// pass: each demand pair scans the cycles in order for the first that
// covers it, transit tests each cycle with Contains, and the cost sums
// per-vertex transit. TestPlanMatchesQuadraticReference holds Plan's
// stored facts bit-identical to it.

func refAssignment(cv *cover.Covering, demand *graph.Graph) (map[graph.Edge]int, int) {
	a := make(map[graph.Edge]int)
	unassigned := 0
	for _, e := range demand.Edges() {
		found := false
		for i, c := range cv.Cycles {
			if c.CoversPair(e.U, e.V) {
				a[e] = i
				found = true
				break
			}
		}
		if !found {
			unassigned++
		}
	}
	return a, unassigned
}

func refTransitAt(cv *cover.Covering, v int) int {
	t := 0
	for _, c := range cv.Cycles {
		if !c.Contains(v) {
			t += 2
		}
	}
	return t
}

func refMaxTransit(cv *cover.Covering) int {
	m := 0
	for v := 0; v < cv.Ring.N(); v++ {
		if t := refTransitAt(cv, v); t > m {
			m = t
		}
	}
	return m
}

func refADMCount(cv *cover.Covering) int {
	t := 0
	for _, c := range cv.Cycles {
		t += c.Len()
	}
	return t
}

func refCost(m CostModel, cv *cover.Covering) float64 {
	totalTransit := 0
	for v := 0; v < cv.Ring.N(); v++ {
		totalTransit += refTransitAt(cv, v)
	}
	wavelengths := 2 * len(cv.Cycles)
	channels := float64(wavelengths * cv.Ring.Links())
	return m.PerWavelength*float64(wavelengths) +
		m.PerADM*float64(refADMCount(cv)) +
		m.PerTransit*float64(totalTransit) +
		m.PerLinkChan*channels
}

// oracleCase is one covering/demand pair the reference is checked on.
type oracleCase struct {
	name   string
	cv     *cover.Covering
	demand *graph.Graph
}

// oracleCases spans the demand shapes the service plans: random rings,
// odd and even λK_n, hub demands, multigraph demands, demands on fewer
// vertices than the ring, and coverings with redundant cycles (where the
// first covering cycle must win).
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	greedy := func(name string, n int, demand *graph.Graph) {
		cases = append(cases, oracleCase{name, construct.Greedy(ring.MustNew(n), demand), demand})
	}
	seed := int64(1)
	for _, n := range []int{5, 8, 13, 21, 34, 55, 90} {
		for _, d := range []float64{0.3, 0.5, 0.7, 0.9} {
			in, err := instance.RandomSymmetric(n, d, seed)
			if err != nil {
				t.Fatal(err)
			}
			seed++
			greedy(in.Name, n, in.Demand)
		}
	}
	for _, n := range []int{5, 6, 7, 8, 9, 11, 13} {
		for lambda := 1; lambda <= 3; lambda++ {
			res, err := construct.Lambda(n, lambda)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, oracleCase{fmt.Sprintf("%dK_%d", lambda, n), res.Covering, graph.LambdaComplete(n, lambda)})
		}
	}
	res, err := construct.AllToAll(101)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, oracleCase{"K_101", res.Covering, graph.Complete(101)})
	for _, n := range []int{6, 17, 30} {
		for _, hub := range []int{0, n / 2, n - 1} {
			in := instance.Hub(n, hub)
			greedy(in.Name, n, in.Demand)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{6, 12, 25} {
		multi := graph.New(n)
		small := graph.New(n - 2) // the last two ring nodes carry no demand
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					multi.AddEdgeMulti(u, v, 1+rng.Intn(3))
				}
				if v < n-2 && rng.Float64() < 0.6 {
					small.AddEdge(u, v)
				}
			}
		}
		greedy(fmt.Sprintf("multigraph n=%d", n), n, multi)
		greedy(fmt.Sprintf("demand on %d of %d nodes", n-2, n), n, small)
	}
	// Node 0 demands one pair, so it alone carries the maximum transit.
	quiet := graph.Complete(9)
	for v := 2; v < 9; v++ {
		quiet.RemoveEdge(0, v)
	}
	greedy("K_9 with node 0 on one pair", 9, quiet)
	// Redundant cycles: the covering followed by its own cycles again in
	// reverse order, and a K_9 covering followed by a full-ring cycle
	// that covers only ring-neighbour pairs a second time.
	for _, c := range cases[:4] {
		twice := cover.NewCovering(c.cv.Ring)
		twice.Cycles = append(twice.Cycles, c.cv.Cycles...)
		for i := len(c.cv.Cycles) - 1; i >= 0; i-- {
			twice.Add(c.cv.Cycles[i])
		}
		cases = append(cases, oracleCase{c.name + " twice", twice, c.demand})
	}
	k9, err := construct.AllToAll(9)
	if err != nil {
		t.Fatal(err)
	}
	r9 := ring.MustNew(9)
	withRing := cover.NewCovering(r9)
	withRing.Add(cover.MustCycle(r9, 0, 1, 2, 3, 4, 5, 6, 7, 8))
	withRing.Cycles = append(withRing.Cycles, k9.Covering.Cycles...)
	cases = append(cases, oracleCase{"C_9 then K_9", withRing, graph.Complete(9)})
	return cases
}

// TestPlanMatchesQuadraticReference proves Plan's single-pass assignment
// and stored facts bit-identical to the quadratic definitions.
func TestPlanMatchesQuadraticReference(t *testing.T) {
	odd := CostModel{PerWavelength: 0.1, PerADM: 0.3, PerTransit: 0.7, PerLinkChan: 1.1}
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			nw, err := Plan(c.cv, c.demand)
			if err != nil {
				t.Fatal(err)
			}
			want, unassigned := refAssignment(c.cv, c.demand)
			if unassigned != 0 {
				t.Fatalf("reference leaves %d demands unassigned on a verified covering", unassigned)
			}
			if len(nw.Assignment) != len(want) {
				t.Fatalf("assignment has %d pairs, reference %d", len(nw.Assignment), len(want))
			}
			for e, i := range want {
				if got, ok := nw.Assignment[e]; !ok || got != i {
					t.Fatalf("pair %v assigned to %d (present %v), reference %d", e, got, ok, i)
				}
			}
			for v := -1; v <= c.cv.Ring.N(); v++ {
				if got, ref := nw.TransitAt(v), refTransitAt(c.cv, v); got != ref {
					t.Fatalf("TransitAt(%d) = %d, reference %d", v, got, ref)
				}
			}
			if got, ref := nw.MaxTransit(), refMaxTransit(c.cv); got != ref {
				t.Fatalf("MaxTransit = %d, reference %d", got, ref)
			}
			if got, ref := nw.ADMCount(), refADMCount(c.cv); got != ref {
				t.Fatalf("ADMCount = %d, reference %d", got, ref)
			}
			for _, m := range []CostModel{DefaultCostModel, odd, {}} {
				if got, ref := m.Cost(nw), refCost(m, c.cv); math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("Cost(%+v) = %v, reference %v", m, got, ref)
				}
			}
		})
	}
}
