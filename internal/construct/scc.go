// This file is the shortest-cycle-cover (SCC) strategy family: the
// general-topology counterpart of the ring constructors. A general
// instance carries an arbitrary bridgeless host graph, every host edge
// must lie on some chosen cycle of the host, and the objective is the
// total cover length Σ|C_i| — the quantity the literature bounds by
// 7/5·m for bridgeless cubic graphs and 4/3·m + c for snarks.
//
// Three members join the portfolio:
//
//   - scc-exact: anytime branch-and-bound over the host's enumerated
//     simple cycles with an edge-bitmask state (hosts up to 64 distinct
//     edges), seeded with the greedy incumbent, pruned by the vertex
//     visit bound Σ_v ⌈ucdeg(v)/2⌉ and the portfolio's shared bound.
//   - scc-kcycle: the restricted/k-cycle approximation family (Manthey;
//     Tang & Diao): greedy maximum-coverage over cycles of length at
//     most KCycleMaxLen only. Drops out when short cycles cannot cover.
//   - scc-greedy: the universal fallback — walk every uncovered edge
//     around a shortest cycle through it (BFS with the edge removed);
//     bridgelessness guarantees such a cycle exists.
//
// All three refuse ring instances (ErrNotApplicable), exactly as the
// ring members refuse general ones, so the portfolio race composes the
// two families without cross-talk.
package construct

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// MethodSCC marks coverings produced by the shortest-cycle-cover
// strategies (exact, k-cycle-restricted, or greedy; Outcome.Strategy
// carries the member).
const MethodSCC Method = "shortest-cycle-cover"

// CoverCost is the objective a covering is ranked by: cycle count for
// ring instances (the paper's ρ(n) objective), total cover length for
// general-topology instances (the SCC objective). The portfolio and the
// fixed pipelines break ties on this cost toward the lowest registry
// index.
func CoverCost(in instance.Instance, cv *cover.Covering) int {
	if in.IsGeneral() {
		return cv.TotalLength()
	}
	return cv.Size()
}

// GeneralSCCCtx is the fixed general-topology pipeline, the serial
// pinned counterpart of racing the scc members in the portfolio: it
// runs scc-exact, scc-kcycle and scc-greedy in registry order and keeps
// the cheapest cover (total length, ties to the earliest member). The
// portfolio determinism pin asserts the race returns bit-identically
// this winner for every general family and worker count.
func GeneralSCCCtx(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: GeneralSCCCtx needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	members := []Strategy{SCCExact{}, SCCKCycle{}, SCCGreedy{}}
	var best Outcome
	bestCost := -1
	for _, m := range members {
		out, err := m.Solve(ctx, in, opts)
		if err != nil {
			if errors.Is(err, ErrNotApplicable) {
				continue
			}
			if ctx.Err() != nil {
				return Outcome{}, ctx.Err()
			}
			return Outcome{}, err
		}
		if c := out.Covering.TotalLength(); bestCost == -1 || c < bestCost {
			best, bestCost = out, c
		}
	}
	if bestCost == -1 {
		return Outcome{}, fmt.Errorf("construct: no scc strategy produced a cover for %q", in.Name)
	}
	return best, nil
}

// MaxSCCEdges caps the host size scc-exact addresses: the search state
// is a single uint64 edge bitmask.
const MaxSCCEdges = 64

// MaxSCCCycles caps the cycle enumeration feeding scc-exact and
// scc-kcycle. Sparse hosts (the cubic families) stay far below it; a
// dense edge-list host whose cycle space explodes past the cap makes the
// enumerating strategies drop out rather than stall the race.
const MaxSCCCycles = 50_000

// DefaultSCCNodeLimit bounds scc-exact branch-and-bound expansions when
// Options.NodeLimit is zero. The committed snark instances complete
// their searches far below it; it converts an adversarial edge-list host
// into an anytime (greedy-seeded) answer instead of a stall.
const DefaultSCCNodeLimit = 2_000_000

// KCycleMaxLen is the cycle-length cap of the restricted scc-kcycle
// strategy. Length 8 covers the snark families' short-cycle structure
// (girth 5 plus the 6- and 8-cycles a cover actually uses) while keeping
// the restricted enumeration tiny.
const KCycleMaxLen = 8

// sccCycle is one enumerated simple cycle of the host: its canonical
// cycle value, its distinct-edge bitmask, and its length.
type sccCycle struct {
	cyc  cover.Cycle
	mask uint64
	len  int
}

// sccEdges indexes the host's distinct edges: bit i of a cycle mask is
// edge (us[i], vs[i]), in the host's deterministic ascending edge order.
type sccEdges struct {
	us, vs []int
}

func indexEdges(host *graph.Graph) sccEdges {
	var e sccEdges
	host.ForEachEdge(func(u, v, _ int) bool {
		e.us = append(e.us, u)
		e.vs = append(e.vs, v)
		return true
	})
	return e
}

// bitOf returns the edge-bit index of {u, v} by binary search over the
// ascending (u, v) edge order; -1 when {u, v} is not a host edge.
func (e sccEdges) bitOf(u, v int) int {
	if u > v {
		u, v = v, u
	}
	lo, hi := 0, len(e.us)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.us[mid] < u || (e.us[mid] == u && e.vs[mid] < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.us) && e.us[lo] == u && e.vs[lo] == v {
		return lo
	}
	return -1
}

// maskOf returns the edge bitmask of a canonical cycle.
func (e sccEdges) maskOf(c cover.Cycle) uint64 {
	var m uint64
	vs := c.Vertices()
	for i := range vs {
		b := e.bitOf(vs[i], vs[(i+1)%len(vs)])
		if b < 0 {
			panic("construct: enumerated cycle uses a non-host edge")
		}
		m |= 1 << uint(b)
	}
	return m
}

// enumerateCycles lists every simple cycle of the host's simple skeleton
// with length ≤ maxLen, in deterministic order (by root vertex, then DFS
// order over ascending neighbor lists), each cycle once. ok is false
// when the count exceeds MaxSCCCycles.
func enumerateCycles(host *graph.Graph, edges sccEdges, maxLen int) ([]sccCycle, bool) {
	n := host.N()
	var out []sccCycle
	path := make([]int, 0, maxLen)
	onPath := make([]bool, n)
	overflow := false

	var dfs func(root, v int) bool
	dfs = func(root, v int) bool {
		for _, w := range host.Neighbors(v) {
			if w == root && len(path) >= cover.MinCycleLen && path[1] < path[len(path)-1] {
				// Closing edge; path[1] < last dedupes the two directions.
				c, err := cover.WalkCycle(path)
				if err != nil {
					panic(err) // distinct by construction
				}
				if len(out) >= MaxSCCCycles {
					overflow = true
					return false
				}
				out = append(out, sccCycle{cyc: c, mask: edges.maskOf(c), len: len(path)})
			}
			if w <= root || onPath[w] || len(path) >= maxLen {
				continue // root stays the cycle's minimum vertex
			}
			path = append(path, w)
			onPath[w] = true
			ok := dfs(root, w)
			onPath[w] = false
			path = path[:len(path)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	for root := 0; root < n && !overflow; root++ {
		path = append(path[:0], root)
		dfs(root, root)
	}
	if overflow {
		return nil, false
	}
	return out, true
}

// sccGreedyCover walks each uncovered host edge (ascending order) around
// a shortest cycle through it: BFS from one endpoint to the other with
// the edge itself barred. Bridgelessness guarantees the BFS connects.
func sccGreedyCover(ctx context.Context, host *graph.Graph) (*cover.Covering, error) {
	n := host.N()
	cv := cover.NewGeneralCovering(n)
	covered := graph.New(n)
	prev := make([]int, n)
	queue := make([]int, 0, n)
	var err error
	host.ForEachEdge(func(u, v, _ int) bool {
		if ctx.Err() != nil {
			err = ctx.Err()
			return false
		}
		if covered.Mult(u, v) > 0 {
			return true
		}
		// BFS u → v avoiding the direct edge.
		for i := range prev {
			prev[i] = -2
		}
		prev[u] = -1
		queue = append(queue[:0], u)
		for len(queue) > 0 && prev[v] == -2 {
			x := queue[0]
			queue = queue[1:]
			for _, w := range host.Neighbors(x) {
				if x == u && w == v {
					continue
				}
				if prev[w] == -2 {
					prev[w] = x
					queue = append(queue, w)
				}
			}
		}
		if prev[v] == -2 {
			err = fmt.Errorf("construct: no cycle through edge {%d,%d} — host has a bridge", u, v)
			return false
		}
		walk := make([]int, 0, n)
		for x := v; x != -1; x = prev[x] {
			walk = append(walk, x)
		}
		c, werr := cover.WalkCycle(walk)
		if werr != nil {
			err = werr
			return false
		}
		cv.Add(c)
		for _, p := range c.Pairs() {
			covered.AddEdge(p.U, p.V)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return cv, nil
}

// SCCGreedy is the universal general-topology fallback: a valid cover
// for every admitted (bridgeless) host, never optimal, never dropping
// out. The general counterpart of GreedySweep.
type SCCGreedy struct{}

// Name implements Strategy.
func (SCCGreedy) Name() string { return "scc-greedy" }

// Solve implements Strategy.
func (SCCGreedy) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: scc-greedy needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	cv, err := sccGreedyCover(ctx, in.Host)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Covering: cv, Method: MethodSCC, Strategy: "scc-greedy"}, nil
}

// SCCKCycle is the restricted-cycle approximation family: it covers
// using only cycles of length ≤ KCycleMaxLen, picked by deterministic
// greedy maximum coverage (most newly covered edges, then shortest, then
// lowest enumeration index). It drops out of the race when some host
// edge lies on no short cycle.
type SCCKCycle struct{}

// Name implements Strategy.
func (SCCKCycle) Name() string { return "scc-kcycle" }

// Solve implements Strategy.
func (SCCKCycle) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		// The restricted enumeration and set-cover run in one short burst;
		// the poll boundary is the call itself.
		return Outcome{}, err
	}
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: scc-kcycle needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	host := in.Host
	if host.DistinctEdges() > MaxSCCEdges {
		return Outcome{}, fmt.Errorf("%w: scc-kcycle addresses hosts with at most %d distinct edges, got %d", ErrNotApplicable, MaxSCCEdges, host.DistinctEdges())
	}
	edges := indexEdges(host)
	cycles, ok := enumerateCycles(host, edges, KCycleMaxLen)
	if !ok {
		return Outcome{}, fmt.Errorf("%w: scc-kcycle enumeration exceeds %d cycles", ErrNotApplicable, MaxSCCCycles)
	}
	cv, ok := greedySetCover(host.N(), cycles, len(edges.us))
	if !ok {
		return Outcome{}, fmt.Errorf("%w: some host edge lies on no cycle of length ≤ %d", ErrNotApplicable, KCycleMaxLen)
	}
	return Outcome{Covering: cv, Method: MethodSCC, Strategy: "scc-kcycle"}, nil
}

// greedySetCover is deterministic maximum-coverage over an enumerated
// cycle list: repeatedly pick the cycle covering the most uncovered
// edges (ties to the shorter cycle, then the lower enumeration index)
// until every edge bit is covered. ok is false when the list cannot
// cover.
func greedySetCover(n int, cycles []sccCycle, m int) (*cover.Covering, bool) {
	full := fullMask(m)
	var covered uint64
	cv := cover.NewGeneralCovering(n)
	for covered != full {
		best, bestNew := -1, 0
		for i, c := range cycles {
			nw := bits.OnesCount64(c.mask &^ covered)
			if nw > bestNew || (nw == bestNew && nw > 0 && c.len < cycles[best].len) {
				best, bestNew = i, nw
			}
		}
		if best == -1 || bestNew == 0 {
			return nil, false
		}
		cv.Add(cycles[best].cyc)
		covered |= cycles[best].mask
	}
	return cv, true
}

// fullMask returns the m-bit all-ones mask.
func fullMask(m int) uint64 {
	if m >= 64 {
		return math.MaxUint64
	}
	return (1 << uint(m)) - 1
}

// SCCExact is anytime branch-and-bound for the shortest cycle cover:
// state is the covered-edge bitmask, branching picks the lowest
// uncovered edge and tries every cycle through it (shortest first), the
// lower bound is the vertex visit count Σ_v ⌈ucdeg(v)/2⌉ (which at the
// root reproduces the literature's m + n/2 cubic bound), and the
// incumbent starts at the scc-greedy cover so a node-limited or
// bound-cut search still returns a valid cover. Optimal is claimed only
// when the search ran to completion with no cut below the incumbent
// caused by the portfolio's shared bound.
//
// The search is serial and deterministic; Options.Parallelism is
// ignored (the committed hosts complete within milliseconds).
type SCCExact struct{}

// Name implements Strategy.
func (SCCExact) Name() string { return "scc-exact" }

// Solve implements Strategy.
func (SCCExact) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: scc-exact needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	host := in.Host
	if host.DistinctEdges() > MaxSCCEdges {
		return Outcome{}, fmt.Errorf("%w: scc-exact addresses hosts with at most %d distinct edges, got %d", ErrNotApplicable, MaxSCCEdges, host.DistinctEdges())
	}
	edges := indexEdges(host)
	cycles, ok := enumerateCycles(host, edges, host.N())
	if !ok {
		return Outcome{}, fmt.Errorf("%w: scc-exact enumeration exceeds %d cycles", ErrNotApplicable, MaxSCCCycles)
	}
	seed, err := sccGreedyCover(ctx, host)
	if err != nil {
		return Outcome{}, err
	}
	// A second incumbent candidate: greedy set-cover over the short
	// cycles (what scc-kcycle would build). On the snark families it is
	// markedly shorter than the BFS walk cover, and a tight incumbent is
	// what makes the branch-and-bound prune.
	var short []sccCycle
	for _, c := range cycles {
		if c.len <= KCycleMaxLen {
			short = append(short, c)
		}
	}
	if alt, ok := greedySetCover(host.N(), short, len(edges.us)); ok && alt.TotalLength() < seed.TotalLength() {
		seed = alt
	}
	// The literature upper bound doubles as an aggressive initial prune
	// limit: the optimum of every committed family lies below it, so
	// capping exploration there shrinks the tree by orders of magnitude
	// (on the flower snarks, the root lower bound m + n/2 sits one or two
	// slots under it). If a pathological host's optimum exceeds the cap,
	// the search returns the greedy seed un-improved and simply does not
	// claim optimality — the cap can cost the claim, never correctness.
	art := cover.GeneralSCCUpperBound(host.M())
	if host.IsCubic() {
		art = cover.SnarkSCCUpperBound(host.M())
	}
	s := &sccSearch{
		host:    host,
		edges:   edges,
		cycles:  cycles,
		byEdge:  cyclesByEdge(cycles, len(edges.us)),
		limit:   opts.NodeLimit,
		bound:   opts.Bound,
		art:     art + 1,
		ctx:     ctx,
		best:    seed,
		bestLen: seed.TotalLength(),
		minCut:  math.MaxInt,
	}
	if s.limit <= 0 {
		s.limit = DefaultSCCNodeLimit
	}
	complete := s.run()
	if err := ctx.Err(); err != nil && s.best == nil {
		return Outcome{}, err
	}
	return Outcome{
		Covering: s.best,
		Method:   MethodSCC,
		// Complete, and no artificial or portfolio cut fell below the
		// final incumbent: every pruned subtree provably held only covers
		// at least as long.
		Optimal:  complete && s.bestLen <= s.minCut,
		Strategy: "scc-exact",
	}, nil
}

// cyclesByEdge indexes cycle IDs by covered edge bit, each list sorted
// shortest-cycle-first (stable on enumeration index): the branching
// order of the search.
func cyclesByEdge(cycles []sccCycle, m int) [][]int32 {
	byEdge := make([][]int32, m)
	// Two passes sorted by length: enumeration order is deterministic, so
	// appending all length-l cycles before length-(l+1) ones yields the
	// shortest-first stable order without a sort call.
	maxLen := 0
	for _, c := range cycles {
		if c.len > maxLen {
			maxLen = c.len
		}
	}
	for l := cover.MinCycleLen; l <= maxLen; l++ {
		for i, c := range cycles {
			if c.len != l {
				continue
			}
			for b := 0; b < m; b++ {
				if c.mask&(1<<uint(b)) != 0 {
					byEdge[b] = append(byEdge[b], int32(i))
				}
			}
		}
	}
	return byEdge
}

// sccSearch is the mutable state of one branch-and-bound run.
type sccSearch struct {
	host   *graph.Graph
	edges  sccEdges
	cycles []sccCycle
	byEdge [][]int32
	limit  int64
	nodes  int64
	bound  *atomic.Int64
	ctx    context.Context
	// art is the artificial exploration cap (literature bound + 1): no
	// subtree that cannot beat it is entered.
	art     int
	chosen  []int32
	best    *cover.Covering
	bestLen int
	// minCut is the smallest effective limit used in a cut that was
	// tighter than the incumbent of the moment (artificial cap or
	// portfolio bound). Such a cut may hide covers between the limit and
	// the incumbent, so optimality is claimed only when the final
	// incumbent is ≤ every such limit.
	minCut int
	stop   bool
	ucdeg  []int
}

func (s *sccSearch) run() bool {
	s.ucdeg = make([]int, s.host.N())
	s.expand(0, 0)
	return !s.stop
}

// lowerBound is the additional-length bound Σ_v ⌈ucdeg(v)/2⌉ for the
// uncovered edge set: covering an edge incident to v spends a visit of
// v, and one visit serves at most two of v's uncovered edges.
func (s *sccSearch) lowerBound(covered uint64) int {
	for i := range s.ucdeg {
		s.ucdeg[i] = 0
	}
	m := len(s.edges.us)
	for b := 0; b < m; b++ {
		if covered&(1<<uint(b)) == 0 {
			s.ucdeg[s.edges.us[b]]++
			s.ucdeg[s.edges.vs[b]]++
		}
	}
	lb := 0
	for _, d := range s.ucdeg {
		lb += (d + 1) / 2
	}
	return lb
}

func (s *sccSearch) expand(covered uint64, curLen int) {
	if s.stop {
		return
	}
	s.nodes++
	if s.nodes > s.limit || s.ctx.Err() != nil {
		s.stop = true
		return
	}
	full := fullMask(len(s.edges.us))
	if covered == full {
		if curLen < s.bestLen {
			s.bestLen = curLen
			cv := cover.NewGeneralCovering(s.host.N())
			for _, id := range s.chosen {
				cv.Add(s.cycles[id].cyc)
			}
			s.best = cv
		}
		return
	}
	// Effective limit: strictly beat the incumbent, the artificial cap,
	// and any external (portfolio) bound. A cut at a limit below the
	// incumbent of the moment may hide covers between the two; record the
	// limit so the Optimal claim can check the final incumbent cleared it.
	limit, tightened := s.bestLen, false
	if s.art < limit {
		limit, tightened = s.art, true
	}
	if s.bound != nil {
		if b := s.bound.Load(); b < int64(limit) {
			limit, tightened = int(b), true
		}
	}
	lb := s.lowerBound(covered)
	if curLen+lb >= limit {
		if tightened && limit < s.minCut {
			s.minCut = limit
		}
		return
	}
	// Branch on the lowest uncovered edge: every cover must serve it, and
	// the fixed order keeps sibling subtrees disjoint in a way that the
	// transposition-free search benefits from. Children recompute their
	// own bound first thing, so no per-child pruning is repeated here.
	b := bits.TrailingZeros64(^covered & full)
	for _, id := range s.byEdge[b] {
		c := s.cycles[id]
		s.chosen = append(s.chosen, id)
		s.expand(covered|c.mask, curLen+c.len)
		s.chosen = s.chosen[:len(s.chosen)-1]
		if s.stop {
			return
		}
	}
}
