package cache

import (
	"context"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// DefaultCapacity bounds each store of a Plans cache when no explicit
// capacity is given: comfortably larger than any experiment sweep while
// keeping worst-case residency (a few thousand cycles per large entry)
// modest.
const DefaultCapacity = 256

// Plans memoizes verified coverings and planned WDM networks per instance
// signature. It is safe for concurrent use.
//
// Who gets a clone and who reads shared:
//
//   - Library callers — Cover, CoverCtx, CoverAllToAll, Lookup,
//     CoverDelta and through them the root Planner — get a private clone
//     of the covering, so they may canonicalize or extend their copy
//     without corrupting the cache.
//   - PlannedCtx and LookupPlanned hand out the cached covering itself,
//     shared and read-only, together with the cached network. They serve
//     the HTTP layer, whose handlers only read the covering to encode it,
//     so a warm hit costs no copy at all.
//   - Cached *wdm.Network values are always shared and read-only. A
//     network is planned once per signature in O(Σ|C| + n) from the
//     shared covering (its subnetworks reference the covering's immutable
//     cycles) and is immutable with its facts (ADMs, transit, cost
//     inputs) precomputed, so reading them costs O(1) with no allocation.
type Plans struct {
	coverings *Store
	networks  *Store
}

// New returns a Plans cache bounding each store to capacity entries
// (capacity ≤ 0 selects DefaultCapacity).
func New(capacity int) *Plans {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Plans{coverings: NewStore(capacity), networks: NewStore(capacity)}
}

// CoverResult is a constructed covering plus provenance, mirroring
// construct.Result.
type CoverResult struct {
	Covering *cover.Covering
	Method   construct.Method
	// Optimal reports that the covering provably has ρ(n) cycles.
	Optimal bool
	// Degraded reports that the covering came from the deadline-degraded
	// anytime pipeline (Options.Degrade): valid and verified, but
	// constructed for speed, not quality. The flag rides the cache entry
	// so every caller that hits a degraded signature sees the provenance
	// end-to-end.
	Degraded bool
	// Demand is the demand graph the covering was verified against —
	// the provenance that lets a cached entry serve as the parent of an
	// incremental delta replan (ResolveDelta). It is shared with the
	// cache and must be treated as read-only.
	Demand *graph.Graph
}

// PlansStats snapshots both stores.
type PlansStats struct {
	Coverings Stats `json:"coverings"`
	Networks  Stats `json:"networks"`
}

// Stats returns the cache counters.
func (p *Plans) Stats() PlansStats {
	return PlansStats{Coverings: p.coverings.Stats(), Networks: p.networks.Stats()}
}

// Cover returns a verified covering of the instance, constructing it on
// the first request and serving clones from the cache afterwards. hit
// reports whether this call avoided construction (cache hit or joined
// flight). The constructor is selected by opts.Strategy; the default
// (empty) pipeline picks by demand class — the paper's optimal machinery
// for K_n, the λ-composition for λK_n, greedy otherwise.
func (p *Plans) Cover(in instance.Instance, opts Options) (CoverResult, bool, error) {
	return p.CoverCtx(context.Background(), in, opts)
}

// CoverCtx is Cover under a context: a caller whose ctx fires while the
// covering is being constructed detaches immediately (the construction
// continues for other waiters, and is itself cancelled when the last
// waiter departs — see Store.DoCtx). A cancelled construction is never
// cached, so the entry delivered to surviving waiters is always a
// verified, completed covering.
func (p *Plans) CoverCtx(ctx context.Context, in instance.Instance, opts Options) (CoverResult, bool, error) {
	if in.Demand == nil {
		return CoverResult{}, false, fmt.Errorf("cache: instance %q has no demand graph (zero-value instance?)", in.Name)
	}
	res, hit, err := p.cover(ctx, in, Signature(in, opts), opts)
	if err != nil {
		return CoverResult{}, hit, err
	}
	// Clone on every library exit so no two callers (nor the cache) share
	// a mutable Cycles slice.
	res.Covering = res.Covering.Clone()
	return res, hit, nil
}

// PlannedCtx is the serving path's one call per plan: the verified
// covering of the instance and, for ring instances, its planned WDM
// network (nil for a general host), both built on a miss. sig must be
// Signature(in, opts); the caller computes it once and reuses it as the
// pool key and the response's signature. The covering is the cached
// value itself, shared with every other reader and read-only — no clone
// is made — and a network planned on a miss is built from that same
// covering. hit reports that neither the covering nor the network had
// to be constructed. Cancellation follows CoverCtx.
func (p *Plans) PlannedCtx(ctx context.Context, in instance.Instance, sig string, opts Options) (CoverResult, *wdm.Network, bool, error) {
	if in.Demand == nil {
		return CoverResult{}, nil, false, fmt.Errorf("cache: instance %q has no demand graph (zero-value instance?)", in.Name)
	}
	res, hit, err := p.cover(ctx, in, sig, opts)
	if err != nil || in.IsGeneral() {
		// No WDM layer over a general host: the plan is the cover itself.
		return res, nil, hit, err
	}
	nw, netHit, err := p.network(ctx, sig, opts, &res, func() instance.Instance { return in })
	if err != nil {
		return CoverResult{}, nil, false, err
	}
	return res, nw, hit && netHit, nil
}

// cover returns the covering cached under sig, building and verifying
// it for in on a miss. The result shares the cached covering: callers
// outside this package get it only as a clone or read-only.
func (p *Plans) cover(ctx context.Context, in instance.Instance, sig string, opts Options) (CoverResult, bool, error) {
	v, hit, err := p.coverings.DoCtx(ctx, sig, func(cctx context.Context) (any, error) {
		return buildCover(cctx, in, opts)
	})
	if err != nil {
		return CoverResult{}, hit, err
	}
	return v.(CoverResult), hit, nil
}

// network is the one cover-then-network path: it returns the network
// cached under sig and, on a miss, plans it over res's covering — or,
// when res is nil, over the shared covering cached (or built) under the
// same signature. No covering is cloned on the way. mk yields the
// instance and is called on a miss only, so an O(1)-keyed caller
// (NetworkAllToAll) materializes its demand graph only when planning.
func (p *Plans) network(ctx context.Context, sig string, opts Options, res *CoverResult, mk func() instance.Instance) (*wdm.Network, bool, error) {
	v, hit, err := p.networks.DoCtx(ctx, sig, func(cctx context.Context) (any, error) {
		in := mk()
		cv := res
		if cv == nil {
			shared, _, err := p.cover(cctx, in, sig, opts)
			if err != nil {
				return nil, err
			}
			cv = &shared
		}
		return wdm.Plan(cv.Covering, in.Demand)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*wdm.Network), hit, nil
}

// Lookup probes the covering cache without computing: it returns the
// cached (already verified) covering for the instance under the given
// options, or ok=false on a miss. It never joins an in-flight
// computation and never blocks beyond the shard lock — the degradation
// path uses it to serve a stale-but-verified plan when the remaining
// deadline cannot fit even the anytime pipeline. The returned covering
// is the caller's private clone.
func (p *Plans) Lookup(in instance.Instance, opts Options) (CoverResult, bool) {
	if in.Demand == nil {
		return CoverResult{}, false
	}
	v, ok := p.coverings.Get(Signature(in, opts))
	if !ok {
		return CoverResult{}, false
	}
	res := v.(CoverResult)
	res.Covering = res.Covering.Clone()
	return res, true
}

// LookupPlanned probes both stores without computing, like Lookup, but
// under a signature the caller already holds (sig must be
// Signature(in, opts) for some opts) and without cloning: the covering is
// the cached value, shared and read-only, and the network is the cached
// one for ring instances (nil for a general host). A ring instance whose
// network is not cached is a miss — the plan could not be completed
// without doing work.
func (p *Plans) LookupPlanned(in instance.Instance, sig string) (CoverResult, *wdm.Network, bool) {
	if in.Demand == nil {
		return CoverResult{}, nil, false
	}
	v, ok := p.coverings.Get(sig)
	if !ok {
		return CoverResult{}, nil, false
	}
	if in.IsGeneral() {
		return v.(CoverResult), nil, true
	}
	nw, ok := p.networks.Get(sig)
	if !ok {
		return CoverResult{}, nil, false
	}
	return v.(CoverResult), nw.(*wdm.Network), true
}

// CoverAllToAll is Cover for the all-to-all instance, keyed in O(1): the
// demand graph is only materialized on a miss, so warm calls cost a
// lookup and a clone.
func (p *Plans) CoverAllToAll(n int, opts Options) (CoverResult, bool, error) {
	return p.CoverAllToAllCtx(context.Background(), n, opts)
}

// CoverAllToAllCtx is CoverAllToAll under a context (see CoverCtx).
func (p *Plans) CoverAllToAllCtx(ctx context.Context, n int, opts Options) (CoverResult, bool, error) {
	sig := SignatureAllToAll(n, opts)
	v, hit, err := p.coverings.DoCtx(ctx, sig, func(cctx context.Context) (any, error) {
		return buildCover(cctx, instance.AllToAll(n), opts)
	})
	if err != nil {
		return CoverResult{}, hit, err
	}
	res := v.(CoverResult)
	res.Covering = res.Covering.Clone()
	return res, hit, nil
}

// NetworkAllToAll is Network for the all-to-all instance, keyed in O(1).
func (p *Plans) NetworkAllToAll(n int, opts Options) (*wdm.Network, bool, error) {
	return p.NetworkAllToAllCtx(context.Background(), n, opts)
}

// NetworkAllToAllCtx is NetworkAllToAll under a context (see CoverCtx).
func (p *Plans) NetworkAllToAllCtx(ctx context.Context, n int, opts Options) (*wdm.Network, bool, error) {
	sig := SignatureAllToAll(n, opts)
	return p.network(ctx, sig, opts, nil, func() instance.Instance { return instance.AllToAll(n) })
}

// Network returns the planned WDM network for the instance, cached under
// the same signature scheme. The returned network is shared across
// callers and must not be mutated.
func (p *Plans) Network(in instance.Instance, opts Options) (*wdm.Network, bool, error) {
	return p.NetworkCtx(context.Background(), in, opts)
}

// NetworkCtx is Network under a context (see CoverCtx for the
// cancellation semantics).
func (p *Plans) NetworkCtx(ctx context.Context, in instance.Instance, opts Options) (*wdm.Network, bool, error) {
	if in.Demand == nil {
		return nil, false, fmt.Errorf("cache: instance %q has no demand graph (zero-value instance?)", in.Name)
	}
	if in.IsGeneral() {
		// WDM planning assigns wavelengths to ring links; a general host
		// has no ring routing to assign over.
		return nil, false, fmt.Errorf("cache: WDM planning applies to ring instances only, %q is general-topology", in.Name)
	}
	return p.network(ctx, Signature(in, opts), opts, nil, func() instance.Instance { return in })
}

// buildCover constructs and verifies a covering for the instance. Only
// verified coverings may enter the cache: an artifact that fails the
// independent verifier is dropped with an error rather than memoized.
// opts.Strategy selects the construction path through the strategy
// registry; empty runs the fixed auto pipeline.
func buildCover(ctx context.Context, in instance.Instance, opts Options) (CoverResult, error) {
	if in.IsGeneral() {
		return buildGeneralCover(ctx, in, opts)
	}
	n := in.N()
	r, err := ring.New(n)
	if err != nil {
		return CoverResult{}, err
	}
	var res CoverResult
	if opts.Strategy != "" {
		st, ok := construct.LookupStrategy(opts.Strategy)
		if !ok {
			return CoverResult{}, fmt.Errorf("cache: unknown strategy %q (have %v)", opts.Strategy, construct.Strategies())
		}
		out, err := construct.SafeSolve(ctx, st, in, construct.Options{})
		if err != nil {
			return CoverResult{}, err
		}
		res = CoverResult{Covering: out.Covering, Method: out.Method, Optimal: out.Optimal, Degraded: opts.Degrade}
	} else if opts.Degrade {
		// Deadline-degraded default pipeline: race only the anytime
		// members. No optimality claim ever; the result is marked so the
		// degradation is visible end-to-end.
		out, err := construct.SafeSolve(ctx, construct.NewDegradedPortfolio(), in, construct.Options{})
		if err != nil {
			return CoverResult{}, err
		}
		res = CoverResult{Covering: out.Covering, Method: out.Method, Degraded: true}
	} else if lam, ok := construct.UniformLambda(in.Demand); ok {
		var cres construct.Result
		var err error
		if lam == 1 {
			cres, err = construct.AllToAllCtx(ctx, n)
		} else {
			cres, err = construct.LambdaCtx(ctx, n, lam)
		}
		if err != nil {
			return CoverResult{}, err
		}
		res = CoverResult{Covering: cres.Covering, Method: cres.Method, Optimal: cres.Optimal}
	} else {
		cv, err := construct.GreedyCtx(ctx, r, in.Demand)
		if err != nil {
			return CoverResult{}, err
		}
		res = CoverResult{Covering: cv, Method: construct.MethodGreedy}
	}
	if opts.EliminateRedundant {
		construct.EliminateRedundant(res.Covering, in.Demand)
		// Redundancy elimination may shrink to ρ(n) but proves nothing;
		// keep the constructor's optimality claim only.
	}
	if err := cover.Verify(res.Covering, in.Demand); err != nil {
		return CoverResult{}, fmt.Errorf("cache: refusing to cache unverified covering: %w", err)
	}
	res.Demand = in.Demand
	return res, nil
}

// buildGeneralCover is buildCover for general-topology instances: the
// scc pipeline (or a named strategy) constructs, the general verifier
// gates admission edge-by-edge against the host. Redundancy elimination
// is a ring-tally optimiser and does not apply — a general cover's
// slack is already minimised by the scc objective itself.
func buildGeneralCover(ctx context.Context, in instance.Instance, opts Options) (CoverResult, error) {
	var out construct.Outcome
	var err error
	switch {
	case opts.Strategy != "":
		st, ok := construct.LookupStrategy(opts.Strategy)
		if !ok {
			return CoverResult{}, fmt.Errorf("cache: unknown strategy %q (have %v)", opts.Strategy, construct.Strategies())
		}
		out, err = construct.SafeSolve(ctx, st, in, construct.Options{})
	case opts.Degrade:
		out, err = construct.SafeSolve(ctx, construct.NewDegradedPortfolio(), in, construct.Options{})
	default:
		out, err = construct.GeneralSCCCtx(ctx, in, construct.Options{})
	}
	if err != nil {
		return CoverResult{}, err
	}
	if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
		return CoverResult{}, fmt.Errorf("cache: refusing to cache unverified cover: %w", err)
	}
	// Degraded general results drop the optimality claim even if the
	// anytime race happened to meet the bound: the flag's contract is
	// "built for speed", and callers comparing against the lower bound
	// can still see Length vs SCCLowerBound themselves.
	if opts.Degrade {
		out.Optimal = false
	}
	return CoverResult{Covering: out.Covering, Method: out.Method, Optimal: out.Optimal, Degraded: opts.Degrade, Demand: in.Demand}, nil
}
