package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/server"
	"github.com/cyclecover/cyclecover/internal/survive"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the enclosing span within the request, -1 for
// the request's root span. Times are nanoseconds since the replay began.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan names the span around a whole replayed request.
const rootSpan = "request"

// tracer collects the spans of a replay in memory.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	reqs [][]span
	// Counters kept at the same boundaries as the spans.
	encodeBytes    int64
	encodes        int64
	sweepScenarios int64
	failed         int
	firstErr       error
}

func (t *tracer) ts() int64 { return now().Sub(t.base).Nanoseconds() }

// reqTrace is the span list of one request. The request's goroutine and
// the pool worker running its job append to it in turn: the worker only
// while the request goroutine is blocked in Pool.Submit, which returns
// after the job has finished.
type reqTrace struct {
	t     *tracer
	req   int
	spans []span
}

// begin opens a span under parent and returns its ID.
func (rt *reqTrace) begin(name string, parent int) int {
	id := len(rt.spans)
	rt.spans = append(rt.spans, span{Name: name, Req: rt.req, ID: id, Parent: parent, Start: rt.t.ts()})
	return id
}

// end closes span id.
func (rt *reqTrace) end(id int) { rt.spans[id].End = rt.t.ts() }

// record closes the request and hands its spans to the tracer.
func (rt *reqTrace) record(err error, encoded int) {
	rt.t.mu.Lock()
	defer rt.t.mu.Unlock()
	rt.t.reqs = append(rt.t.reqs, rt.spans)
	if encoded > 0 {
		rt.t.encodeBytes += int64(encoded)
		rt.t.encodes++
	}
	if err != nil {
		rt.t.failed++
		if rt.t.firstErr == nil {
			rt.t.firstErr = err
		}
	}
}

// replayer calls the layers' public functions in the order the handlers
// call them, on its own cache and pool, with the same sizes as the
// served stack.
type replayer struct {
	plans *cache.Plans
	pool  *server.Pool
	t     *tracer
	// known holds the signatures the replay's cache holds; a plan for any
	// other signature replays the construction path span by span instead
	// of calling CoverCtx, so the layers below the cache show separately.
	mu    sync.Mutex
	known map[string]bool
}

// parseItem parses a plan item's instance.
func parseItem(it planItem) (instance.Instance, error) {
	return instance.Parse(it.N, it.Demand)
}

func newReplayer(t *tracer) (*replayer, error) {
	rp := &replayer{plans: cache.New(0), pool: server.NewPool(0, 0), t: t, known: map[string]bool{}}
	ctx := context.Background()
	for _, it := range warmSet {
		in, err := parseItem(it)
		if err != nil {
			return nil, err
		}
		opts := cache.Options{Strategy: it.Strategy}
		if _, _, err := rp.plans.CoverCtx(ctx, in, opts); err != nil {
			return nil, err
		}
		if !in.IsGeneral() {
			if _, _, err := rp.plans.NetworkCtx(ctx, in, opts); err != nil {
				return nil, err
			}
		}
		rp.known[cache.Signature(in, opts)] = true
	}
	return rp, nil
}

func (rp *replayer) isKnown(sig string) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.known[sig]
}

func (rp *replayer) markKnown(sig string) {
	rp.mu.Lock()
	rp.known[sig] = true
	rp.mu.Unlock()
}

// planResponse mirrors the JSON shape of a /plan answer field for field,
// so encoding it costs what the handler's encode costs.
type planResponse struct {
	Signature     string  `json:"signature"`
	N             int     `json:"n"`
	Demand        string  `json:"demand"`
	Strategy      string  `json:"strategy,omitempty"`
	Size          int     `json:"size"`
	Rho           int     `json:"rho,omitempty"`
	Length        int     `json:"length,omitempty"`
	SCCLowerBound int     `json:"sccLowerBound,omitempty"`
	Optimal       bool    `json:"optimal"`
	Degraded      bool    `json:"degraded,omitempty"`
	Stale         bool    `json:"stale,omitempty"`
	Method        string  `json:"method"`
	Cycles        [][]int `json:"cycles"`
	Wavelengths   int     `json:"wavelengths"`
	ADMs          int     `json:"adms"`
	MaxTransit    int     `json:"maxTransit"`
	Cost          float64 `json:"cost"`
	CacheHit      bool    `json:"cacheHit"`
}

// simulateResponse mirrors the JSON shape of a /simulate answer.
type simulateResponse struct {
	Signature   string              `json:"signature"`
	N           int                 `json:"n"`
	Demand      string              `json:"demand"`
	Strategy    string              `json:"strategy,omitempty"`
	Subnets     int                 `json:"subnets"`
	Wavelengths int                 `json:"wavelengths"`
	CacheHit    bool                `json:"cacheHit"`
	Sweep       survive.SweepResult `json:"sweep"`
}

// verifyResponse mirrors the JSON shape of a /verify answer.
type verifyResponse struct {
	Valid         bool   `json:"valid"`
	Size          int    `json:"size"`
	Rho           int    `json:"rho,omitempty"`
	Length        int    `json:"length,omitempty"`
	SCCLowerBound int    `json:"sccLowerBound,omitempty"`
	Optimal       bool   `json:"optimal"`
	Error         string `json:"error,omitempty"`
}

// netFacts are the WDM facts a plan answer carries.
type netFacts struct {
	wavelengths, adms, maxTransit int
	cost                          float64
}

func factsOf(nw *wdm.Network) *netFacts {
	return &netFacts{wavelengths: nw.Wavelengths(), adms: nw.ADMCount(), maxTransit: nw.MaxTransit(), cost: wdm.DefaultCostModel.Cost(nw)}
}

// jobResult is what a replayed plan job returns.
type jobResult struct {
	cv      *cover.Covering
	method  string
	optimal bool
	nw      *netFacts
	hit     bool
}

// encodeBufs recycles encode buffers, as the handlers' response path
// does.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encode JSON-encodes v the way the handlers do (indented, or compact
// for /plan/batch lines) inside an encode.json span.
func encode(rt *reqTrace, parent int, v any, indent bool) (int, error) {
	id := rt.begin("encode.json", parent)
	buf := encodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	err := enc.Encode(v)
	rt.end(id)
	n := buf.Len()
	encodeBufs.Put(buf)
	return n, err
}

// planStep replays one plan item up to its response value: parse,
// signature, the pool job (cache hit, or construct, verify and WDM plan
// on a miss) and building the response.
func (rp *replayer) planStep(ctx context.Context, rt *reqTrace, root int, it planItem) (planResponse, error) {
	id := rt.begin("instance.parse", root)
	in, err := parseItem(it)
	rt.end(id)
	if err != nil {
		return planResponse{}, err
	}
	opts := cache.Options{Strategy: it.Strategy}
	id = rt.begin("cache.signature", root)
	sig := cache.Signature(in, opts)
	rt.end(id)
	sub := rt.begin("server.pool.submit", root)
	submitted := rt.spans[sub].Start
	v, err := rp.pool.Submit(ctx, sig, func(jctx context.Context) (any, error) {
		w := rt.begin("server.pool.wait", sub)
		rt.spans[w].Start = submitted
		rt.end(w)
		if rp.isKnown(sig) {
			return rp.hitJob(jctx, rt, sub, in, opts)
		}
		return rp.missJob(jctx, rt, sub, in, it.Strategy)
	})
	rt.end(sub)
	if err != nil {
		return planResponse{}, err
	}
	jr := v.(jobResult)
	id = rt.begin("server.build_response", root)
	resp := planResponse{
		Signature: sig,
		N:         in.N(),
		Demand:    in.Name,
		Strategy:  it.Strategy,
		Size:      jr.cv.Size(),
		Optimal:   jr.optimal,
		Method:    jr.method,
		CacheHit:  jr.hit,
	}
	if jr.nw != nil {
		resp.Wavelengths, resp.ADMs, resp.MaxTransit, resp.Cost = jr.nw.wavelengths, jr.nw.adms, jr.nw.maxTransit, jr.nw.cost
	}
	if in.IsGeneral() {
		resp.Length = jr.cv.TotalLength()
		resp.SCCLowerBound = cover.SCCLowerBound(in.Host)
	} else if isAllToAll(in) {
		resp.Rho = cover.Rho(in.N())
	}
	for _, c := range jr.cv.Cycles {
		resp.Cycles = append(resp.Cycles, c.Vertices())
	}
	rt.end(id)
	return resp, nil
}

// hitJob serves a cached signature through Plans.CoverCtx and
// Plans.NetworkCtx.
func (rp *replayer) hitJob(ctx context.Context, rt *reqTrace, parent int, in instance.Instance, opts cache.Options) (any, error) {
	id := rt.begin("cache.cover_hit", parent)
	res, hit, err := rp.plans.CoverCtx(ctx, in, opts)
	rt.end(id)
	if err != nil {
		return nil, err
	}
	jr := jobResult{cv: res.Covering, method: string(res.Method), optimal: res.Optimal, hit: hit}
	if in.IsGeneral() {
		return jr, nil
	}
	id = rt.begin("cache.network_hit", parent)
	nw, netHit, err := rp.plans.NetworkCtx(ctx, in, opts)
	rt.end(id)
	if err != nil {
		return nil, err
	}
	jr.nw = factsOf(nw)
	jr.hit = hit && netHit
	return jr, nil
}

// missJob replays what the cache does on a miss, one span per layer: the
// construction dispatch of the cache's build path, the verifier, and WDM
// planning for ring instances. The result is not inserted into the
// replay's cache.
func (rp *replayer) missJob(ctx context.Context, rt *reqTrace, parent int, in instance.Instance, strategy string) (any, error) {
	var (
		cv      *cover.Covering
		method  construct.Method
		optimal bool
		err     error
	)
	id := rt.begin(constructSpan(in, strategy), parent)
	switch {
	case strategy != "":
		st, ok := construct.LookupStrategy(strategy)
		if !ok {
			err = fmt.Errorf("unknown strategy %q", strategy)
			break
		}
		var out construct.Outcome
		out, err = construct.SafeSolve(ctx, st, in, construct.Options{})
		cv, method, optimal = out.Covering, out.Method, out.Optimal
	case in.IsGeneral():
		var out construct.Outcome
		out, err = construct.GeneralSCCCtx(ctx, in, construct.Options{})
		cv, method, optimal = out.Covering, out.Method, out.Optimal
	default:
		var res construct.Result
		if lam, ok := construct.UniformLambda(in.Demand); ok {
			if lam == 1 {
				res, err = construct.AllToAllCtx(ctx, in.N())
			} else {
				res, err = construct.LambdaCtx(ctx, in.N(), lam)
			}
			cv, method, optimal = res.Covering, res.Method, res.Optimal
		} else {
			var r ring.Ring
			if r, err = ring.New(in.N()); err == nil {
				cv, err = construct.GreedyCtx(ctx, r, in.Demand)
				method = construct.MethodGreedy
			}
		}
	}
	rt.end(id)
	if err != nil {
		return nil, err
	}
	if in.IsGeneral() {
		id = rt.begin("cover.verify_general", parent)
		err = cover.VerifyGeneral(cv, in.Host)
	} else {
		id = rt.begin("cover.verify", parent)
		err = cover.Verify(cv, in.Demand)
	}
	rt.end(id)
	if err != nil {
		return nil, err
	}
	jr := jobResult{cv: cv, method: string(method), optimal: optimal}
	if in.IsGeneral() {
		return jr, nil
	}
	id = rt.begin("wdm.plan", parent)
	nw, err := wdm.Plan(cv, in.Demand)
	rt.end(id)
	if err != nil {
		return nil, err
	}
	jr.nw = factsOf(nw)
	return jr, nil
}

// constructSpan names the construction span the way the per-layer
// metrics group it.
func constructSpan(in instance.Instance, strategy string) string {
	switch {
	case strategy == "portfolio":
		return "construct.portfolio"
	case strategy != "":
		return "construct." + strings.ReplaceAll(strategy, "-", "_")
	case in.IsGeneral():
		return "construct.scc"
	}
	if _, ok := construct.UniformLambda(in.Demand); ok {
		return "construct.closed_form"
	}
	return "construct.greedy"
}

// exec replays one request and records its spans.
func (rp *replayer) exec(ctx context.Context, req int, r request, verifyBodies [][]byte) {
	rt := &reqTrace{t: rp.t, req: req, spans: make([]span, 0, 16)}
	root := rt.begin(rootSpan, -1)
	encoded, err := rp.dispatch(ctx, rt, root, r, verifyBodies)
	rt.end(root)
	rt.record(err, encoded)
}

func (rp *replayer) dispatch(ctx context.Context, rt *reqTrace, root int, r request, verifyBodies [][]byte) (int, error) {
	switch r.kind {
	case kindPlan:
		resp, err := rp.planStep(ctx, rt, root, r.item)
		if err != nil {
			return 0, err
		}
		return encode(rt, root, resp, true)
	case kindBatch:
		id := rt.begin("server.decode_batch", root)
		body := batchBody(r.items)
		var items []planItem
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			var it planItem
			if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
				rt.end(id)
				return 0, err
			}
			items = append(items, it)
		}
		rt.end(id)
		total := 0
		for i, it := range items {
			resp, err := rp.planStep(ctx, rt, root, it)
			if err != nil {
				return 0, err
			}
			n, err := encode(rt, root, struct {
				Index int           `json:"index"`
				Plan  *planResponse `json:"plan,omitempty"`
			}{i, &resp}, false)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	case kindDelta:
		return rp.deltaStep(ctx, rt, root, r)
	case kindSimulate:
		return rp.simulateStep(ctx, rt, root, r)
	default:
		return rp.verifyStep(ctx, rt, root, verifyBodies[r.warm])
	}
}

// deltaStep replays /plan/delta: delta parse, parent resolution, warm
// repair through Plans.CoverDeltaCtx, then the child's network.
func (rp *replayer) deltaStep(ctx context.Context, rt *reqTrace, root int, r request) (int, error) {
	sigs, err := warmSignatures()
	if err != nil {
		return 0, err
	}
	parentSig := sigs[r.warm]
	id := rt.begin("instance.parse_delta", root)
	d, err := instance.ParseDelta(r.delta)
	rt.end(id)
	if err != nil {
		return 0, err
	}
	id = rt.begin("cache.resolve_delta", root)
	dp, err := rp.plans.ResolveDelta(parentSig, d)
	rt.end(id)
	if err != nil {
		return 0, err
	}
	sub := rt.begin("server.pool.submit", root)
	submitted := rt.spans[sub].Start
	v, err := rp.pool.Submit(ctx, "delta:"+dp.ParentSig+"->"+dp.ChildSig, func(jctx context.Context) (any, error) {
		w := rt.begin("server.pool.wait", sub)
		rt.spans[w].Start = submitted
		rt.end(w)
		id := rt.begin("cache.delta", sub)
		res, coverHit, err := rp.plans.CoverDeltaCtx(jctx, dp)
		rt.end(id)
		if err != nil {
			return nil, err
		}
		name := "cache.network_hit"
		if !rp.isKnown(dp.ChildSig) {
			// The child's first network: NetworkCtx plans it (wdm.Plan
			// behind a cache hit on the covering CoverDeltaCtx stored).
			name = "wdm.plan"
		}
		id = rt.begin(name, sub)
		nw, netHit, err := rp.plans.NetworkCtx(jctx, dp.Child, dp.Opts)
		rt.end(id)
		if err != nil {
			return nil, err
		}
		rp.markKnown(dp.ChildSig)
		return jobResult{cv: res.Covering, method: string(res.Method), optimal: res.Optimal, nw: factsOf(nw), hit: coverHit && netHit}, nil
	})
	rt.end(sub)
	if err != nil {
		return 0, err
	}
	jr := v.(jobResult)
	id = rt.begin("server.build_response", root)
	resp := struct {
		planResponse
		Parent   string `json:"parent"`
		Delta    string `json:"delta"`
		Repaired bool   `json:"repaired"`
	}{
		planResponse: planResponse{
			Signature: dp.ChildSig, N: dp.Child.N(), Demand: dp.Child.Name, Size: jr.cv.Size(),
			Optimal: jr.optimal, Method: jr.method, Wavelengths: jr.nw.wavelengths, ADMs: jr.nw.adms,
			MaxTransit: jr.nw.maxTransit, Cost: jr.nw.cost, CacheHit: jr.hit,
		},
		Parent:   dp.ParentSig,
		Delta:    d.String(),
		Repaired: jr.method == string(construct.MethodDelta),
	}
	for _, c := range jr.cv.Cycles {
		resp.Cycles = append(resp.Cycles, c.Vertices())
	}
	rt.end(id)
	return encode(rt, root, resp, true)
}

// simulateStep replays /simulate: parse, signature, the cached network
// and a k-failure sweep.
func (rp *replayer) simulateStep(ctx context.Context, rt *reqTrace, root int, r request) (int, error) {
	it := warmSet[r.warm]
	id := rt.begin("instance.parse", root)
	in, err := parseItem(it)
	rt.end(id)
	if err != nil {
		return 0, err
	}
	opts := cache.Options{Strategy: it.Strategy}
	id = rt.begin("cache.signature", root)
	sig := cache.Signature(in, opts)
	rt.end(id)
	sweepOpts := survive.SweepOptions{K: r.k, Sample: server.DefaultSweepSample, MaxScenarios: server.MaxSweepScenarios}
	sub := rt.begin("server.pool.submit", root)
	submitted := rt.spans[sub].Start
	v, err := rp.pool.Submit(ctx, fmt.Sprintf("%s;sim:k=%d,sample=%d,seed=0", sig, r.k, sweepOpts.Sample), func(jctx context.Context) (any, error) {
		w := rt.begin("server.pool.wait", sub)
		rt.spans[w].Start = submitted
		rt.end(w)
		id := rt.begin("cache.network_hit", sub)
		nw, hit, err := rp.plans.NetworkCtx(jctx, in, opts)
		rt.end(id)
		if err != nil {
			return nil, err
		}
		id = rt.begin("survive.sweep", sub)
		sweep, err := survive.NewSimulator(nw).SweepCtx(jctx, sweepOpts)
		rt.end(id)
		if err != nil {
			return nil, err
		}
		rp.t.mu.Lock()
		rp.t.sweepScenarios += int64(sweep.Evaluated)
		rp.t.mu.Unlock()
		return simulateResponse{Signature: sig, N: in.N(), Demand: in.Name, Subnets: len(nw.Subnets), Wavelengths: nw.Wavelengths(), CacheHit: hit, Sweep: sweep}, nil
	})
	rt.end(sub)
	if err != nil {
		return 0, err
	}
	return encode(rt, root, v, true)
}

// verifyStep replays /verify: body decode, parse, and the verifier on a
// pool worker.
func (rp *replayer) verifyStep(ctx context.Context, rt *reqTrace, root int, body []byte) (int, error) {
	id := rt.begin("server.decode_json", root)
	var req struct {
		N      int     `json:"n"`
		Cycles [][]int `json:"cycles"`
		Demand string  `json:"demand"`
	}
	err := json.Unmarshal(body, &req)
	rt.end(id)
	if err != nil {
		return 0, err
	}
	id = rt.begin("instance.parse", root)
	in, err := instance.Parse(req.N, req.Demand)
	rt.end(id)
	if err != nil {
		return 0, err
	}
	sub := rt.begin("server.pool.submit", root)
	submitted := rt.spans[sub].Start
	v, err := rp.pool.Submit(ctx, fmt.Sprintf("verify:%x", sha256.Sum256(body)), func(context.Context) (any, error) {
		w := rt.begin("server.pool.wait", sub)
		rt.spans[w].Start = submitted
		rt.end(w)
		resp := verifyResponse{Size: len(req.Cycles)}
		if in.IsGeneral() {
			id := rt.begin("cover.verify_general", sub)
			defer rt.end(id)
			cv := cover.NewGeneralCovering(req.N)
			for _, walk := range req.Cycles {
				c, err := cover.WalkCycle(walk)
				if err != nil {
					return nil, err
				}
				cv.Cycles = append(cv.Cycles, c)
			}
			resp.SCCLowerBound = cover.SCCLowerBound(in.Host)
			if err := cover.VerifyGeneral(cv, in.Host); err != nil {
				return nil, err
			}
			resp.Valid, resp.Length = true, cv.TotalLength()
			resp.Optimal = resp.Length == resp.SCCLowerBound
			return resp, nil
		}
		id := rt.begin("cover.verify", sub)
		defer rt.end(id)
		r, err := ring.New(req.N)
		if err != nil {
			return nil, err
		}
		cv, err := cover.FromVertexSets(r, req.Cycles)
		if err != nil {
			return nil, err
		}
		if err := cover.Verify(cv, in.Demand); err != nil {
			return nil, err
		}
		if isAllToAll(in) {
			resp.Rho = cover.Rho(req.N)
		}
		resp.Valid = true
		resp.Optimal = resp.Rho > 0 && cv.Size() == resp.Rho
		return resp, nil
	})
	rt.end(sub)
	if err != nil {
		return 0, err
	}
	return encode(rt, root, v, true)
}

// runReplay replays the workload's request stream for seed through the
// layers with the same client concurrency and schedule as the untraced
// phase, for at most d.
func runReplay(w workload, seed int64, d time.Duration, verifyBodies [][]byte) (*tracer, error) {
	t := &tracer{base: now()}
	rp, err := newReplayer(t)
	if err != nil {
		return nil, err
	}
	s := w.gen(seed)
	ctx := context.Background()
	var wg sync.WaitGroup
	t0 := now()
	deadline := t0.Add(d)
	for g := 0; g < clientCount; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, i := s.next()
				if w.open {
					sched := t0.Add(r.at)
					if !sched.Before(deadline) {
						return
					}
					waitUntil(sched)
				} else if !now().Before(deadline) {
					return
				}
				rp.exec(ctx, i, r, verifyBodies)
			}
		}()
	}
	wg.Wait()
	rp.pool.Close()
	return t, nil
}

// layerSamples groups span durations (in seconds) by span name.
func (t *tracer) layerSamples() map[string][]float64 {
	out := map[string][]float64{}
	for _, spans := range t.reqs {
		for _, sp := range spans {
			out[sp.Name] = append(out[sp.Name], float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span never overlap: a request's calls
// are sequential, and a pool job runs while its submitter waits.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start
	}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	return self
}

// attributedMS returns, per request, the milliseconds spent in layer
// spans: the request's duration minus the root span's self time.
func (t *tracer) attributedMS() []float64 {
	out := make([]float64, 0, len(t.reqs))
	for _, spans := range t.reqs {
		self := selfTimes(spans)
		total := int64(0)
		for i, sp := range spans {
			if sp.Name != rootSpan {
				total += self[i]
			}
		}
		out = append(out, float64(total)/1e6)
	}
	return out
}

// layerSelf sums self time (seconds) by layer, the span name's prefix.
func (t *tracer) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for _, spans := range t.reqs {
		self := selfTimes(spans)
		for i, sp := range spans {
			layer, _, _ := strings.Cut(sp.Name, ".")
			out[layer] += float64(self[i]) / 1e9
		}
	}
	return out
}

// writeSpans writes every span, one JSON object per line, ordered by
// request then span ID.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	reqs := append([][]span(nil), t.reqs...)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i][0].Req < reqs[j][0].Req })
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, spans := range reqs {
		for _, sp := range spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// transportProbe times, for the workload's first plan requests, the
// handler alone (Handler().ServeHTTP into a recorder) and a loopback
// round trip of the same request, both on an entry the server already
// holds. The difference of the medians is the HTTP transport's share.
func transportProbe(w workload, seed int64, budget time.Duration, chk *checker) (handlerUS, roundTripUS []float64, err error) {
	st, _, err := setUp(w.cfg, chk)
	if err != nil {
		return nil, nil, err
	}
	defer st.stop()
	c := newClient(st.base)
	defer c.close()
	h := st.srv.Handler()
	s := w.gen(seed)
	deadline := now().Add(budget)
	for len(handlerUS) < 400 && now().Before(deadline) {
		r, _ := s.next()
		if r.kind != kindPlan {
			continue
		}
		path := r.item.path()
		warm := httptest.NewRecorder()
		h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, path, nil))
		if warm.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("probe %s: status %d", path, warm.Code)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		t0 := now()
		h.ServeHTTP(rec, req)
		t1 := now()
		status, xcache, body, err := c.do(http.MethodGet, path, "", nil)
		t2 := now()
		if err := statusErr("probe "+path, status, body, err); err != nil {
			return nil, nil, err
		}
		if rec.Header().Get("X-Cache") != "HIT" || xcache != "HIT" {
			return nil, nil, errors.New("probe: a probed request missed the cache")
		}
		handlerUS = append(handlerUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		roundTripUS = append(roundTripUS, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	return handlerUS, roundTripUS, nil
}
