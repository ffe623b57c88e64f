package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/survive"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// planBody is the part of a /plan (and /plan/delta) response the checks
// read.
type planBody struct {
	Signature     string  `json:"signature"`
	N             int     `json:"n"`
	Size          int     `json:"size"`
	Rho           int     `json:"rho"`
	Length        int     `json:"length"`
	SCCLowerBound int     `json:"sccLowerBound"`
	Optimal       bool    `json:"optimal"`
	Cycles        [][]int `json:"cycles"`
}

// simulateBody is the part of a /simulate response the checks read.
type simulateBody struct {
	Sweep json.RawMessage `json:"sweep"`
}

// verifyBody is the part of a /verify response the checks read.
type verifyBody struct {
	Valid   bool `json:"valid"`
	Size    int  `json:"size"`
	Optimal bool `json:"optimal"`
}

// checker validates every response. The first response for each
// identity (plan signature, delta, sweep, verify body) is re-verified
// independently against the benchmark's own parsed instance; later
// responses for the same identity must be byte-identical to the first,
// apart from the cacheHit flag, which legitimately differs between the
// miss that built an entry and the hits after it. Safe for concurrent
// use.
type checker struct {
	mu   sync.Mutex
	seen map[string]uint64 // identity → hash of the normalized first body
	// refs holds the set-up HIT body of each warm item (indexed like
	// warmSet) and its compact form as it appears in /plan/batch lines.
	refs    [][]byte
	compact [][]byte
	// verifyBodies are the /verify request bodies, one per warm item.
	verifyBodies [][]byte
	firstErr     error
}

func newChecker() *checker {
	return &checker{seen: map[string]uint64{}}
}

// fail records the first error.
func (c *checker) fail(err error) error {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
	return err
}

// normalizedHash hashes body with the value of its cacheHit field left
// out.
func normalizedHash(body []byte) uint64 {
	h := fnv.New64a()
	key := []byte(`"cacheHit":`)
	if i := bytes.LastIndex(body, key); i >= 0 {
		h.Write(body[:i])
		rest := body[i+len(key):]
		rest = bytes.TrimLeft(rest, " ")
		switch {
		case bytes.HasPrefix(rest, []byte("true")):
			rest = rest[len("true"):]
		case bytes.HasPrefix(rest, []byte("false")):
			rest = rest[len("false"):]
		}
		h.Write(rest)
		return h.Sum64()
	}
	h.Write(body)
	return h.Sum64()
}

// repeat compares body with the first body seen under id. It returns
// first=true when id is new; the caller then verifies the body
// independently and calls remember.
func (c *checker) repeat(id string, body []byte) (first bool, err error) {
	h := normalizedHash(body)
	c.mu.Lock()
	prev, ok := c.seen[id]
	c.mu.Unlock()
	if !ok {
		return true, nil
	}
	if prev != h {
		return false, fmt.Errorf("%s: response differs from the first response for the same request", id)
	}
	return false, nil
}

// remember stores the hash of an independently verified first body.
func (c *checker) remember(id string, body []byte) {
	h := normalizedHash(body)
	c.mu.Lock()
	if _, ok := c.seen[id]; !ok {
		c.seen[id] = h
	}
	c.mu.Unlock()
}

// verifyPlan re-verifies a /plan response for it against the
// benchmark's own parse of the instance.
func verifyPlan(it planItem, body []byte) error {
	var pb planBody
	if err := json.Unmarshal(body, &pb); err != nil {
		return fmt.Errorf("%s: decoding plan: %v", it.key(), err)
	}
	in, err := instance.Parse(it.N, it.Demand)
	if err != nil {
		return fmt.Errorf("%s: parsing instance: %v", it.key(), err)
	}
	if want := cache.Signature(in, cache.Options{Strategy: it.Strategy}); pb.Signature != want {
		return fmt.Errorf("%s: signature %q, want %q", it.key(), pb.Signature, want)
	}
	return verifyCovering(it.key(), in, pb)
}

// verifyCovering checks pb's covering against in: valid, sized as
// claimed, never below ρ(n) on K_n, and optimal only where ρ(n) or the
// shortest-cycle-cover lower bound proves it.
func verifyCovering(id string, in instance.Instance, pb planBody) error {
	n := in.N()
	if pb.N != n || pb.Size != len(pb.Cycles) {
		return fmt.Errorf("%s: n=%d size=%d with %d cycles, want n=%d", id, pb.N, pb.Size, len(pb.Cycles), n)
	}
	if in.IsGeneral() {
		cv := cover.NewGeneralCovering(n)
		for _, walk := range pb.Cycles {
			c, err := cover.WalkCycle(walk)
			if err != nil {
				return fmt.Errorf("%s: bad walk: %v", id, err)
			}
			cv.Cycles = append(cv.Cycles, c)
		}
		if err := cover.VerifyGeneral(cv, in.Host); err != nil {
			return fmt.Errorf("%s: invalid cover: %v", id, err)
		}
		lb := cover.SCCLowerBound(in.Host)
		if pb.Length != cv.TotalLength() || pb.SCCLowerBound != lb {
			return fmt.Errorf("%s: length %d / bound %d, want %d / %d", id, pb.Length, pb.SCCLowerBound, cv.TotalLength(), lb)
		}
		if pb.Optimal && pb.Length != lb {
			// Above the counting bound an optimality claim needs a proof:
			// search every cover by simple cycles for a shorter one.
			shorter, err := shorterCoverExists(in.Host, pb.Length)
			if err != nil {
				return fmt.Errorf("%s: claims optimal at length %d above the lower bound %d, and %v", id, pb.Length, lb, err)
			}
			if shorter {
				return fmt.Errorf("%s: claims optimal at length %d, but a shorter cover exists", id, pb.Length)
			}
		}
		return nil
	}
	r, err := ring.New(n)
	if err != nil {
		return fmt.Errorf("%s: %v", id, err)
	}
	cv, err := cover.FromVertexSets(r, pb.Cycles)
	if err != nil {
		return fmt.Errorf("%s: bad cycles: %v", id, err)
	}
	if err := cover.Verify(cv, in.Demand); err != nil {
		return fmt.Errorf("%s: invalid covering: %v", id, err)
	}
	allToAll := isAllToAll(in)
	if allToAll {
		rho := cover.Rho(n)
		if pb.Rho != rho || pb.Size < rho {
			return fmt.Errorf("%s: size %d rho %d, want rho %d and size >= rho", id, pb.Size, pb.Rho, rho)
		}
	}
	if pb.Optimal && !(allToAll && pb.Size == cover.Rho(n)) {
		return fmt.Errorf("%s: claims optimal with %d cycles, which neither rho(n) nor a lower bound backs", id, pb.Size)
	}
	return nil
}

// isAllToAll reports whether in is K_n with multiplicity one.
func isAllToAll(in instance.Instance) bool {
	n := in.N()
	pairs := n * (n - 1) / 2
	return !in.IsGeneral() && in.Demand.DistinctEdges() == pairs && in.Demand.M() == pairs
}

// checkPlan checks a /plan response body for it. warm is the warm-set
// index of it, or -1.
func (c *checker) checkPlan(it planItem, warm int, body []byte) error {
	if warm >= 0 {
		if !bytes.Equal(body, c.refs[warm]) {
			return c.fail(fmt.Errorf("plan|%s: response differs from the set-up answer for the same request", it.key()))
		}
		return nil
	}
	id := "plan|" + it.key()
	first, err := c.repeat(id, body)
	if err != nil {
		return c.fail(err)
	}
	if !first {
		return nil
	}
	if err := verifyPlan(it, body); err != nil {
		return c.fail(err)
	}
	c.remember(id, body)
	return nil
}

// checkBatch checks a /plan/batch NDJSON body: one line per item, each
// carrying the item's plan, byte-identical to the compact form of the
// warm item's reference plan.
func (c *checker) checkBatch(items []int, body []byte) error {
	got := 0
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		idx, plan, err := splitBatchLine(line)
		if err != nil {
			return c.fail(err)
		}
		if idx < 0 || idx >= len(items) {
			return c.fail(fmt.Errorf("batch: line index %d out of range", idx))
		}
		if !bytes.Equal(plan, c.compact[items[idx]]) {
			return c.fail(fmt.Errorf("batch: item %d (%s) differs from its /plan answer", idx, warmSet[items[idx]].key()))
		}
		got++
	}
	if got != len(items) {
		return c.fail(fmt.Errorf("batch: %d lines for %d items", got, len(items)))
	}
	return nil
}

// splitBatchLine cuts a batch line `{"index":i,"plan":{...}}` into the
// index and the raw plan object.
func splitBatchLine(line []byte) (int, []byte, error) {
	const pre, mid = `{"index":`, `,"plan":`
	if !bytes.HasPrefix(line, []byte(pre)) || line[len(line)-1] != '}' {
		return 0, nil, fmt.Errorf("batch: malformed line %.80q", line)
	}
	j := bytes.Index(line, []byte(mid))
	if j < 0 {
		return 0, nil, fmt.Errorf("batch: line without a plan: %.120q", line)
	}
	idx := 0
	for _, ch := range line[len(pre):j] {
		if ch < '0' || ch > '9' {
			return 0, nil, fmt.Errorf("batch: bad index in %.80q", line)
		}
		idx = idx*10 + int(ch-'0')
	}
	return idx, line[j+len(mid) : len(line)-1], nil
}

// checkDelta checks a /plan/delta response: the child covering must
// cover the parent demand with the delta applied, as computed here.
func (c *checker) checkDelta(warm int, delta string, body []byte) error {
	id := "delta|" + warmSet[warm].key() + "|" + delta
	first, err := c.repeat(id, body)
	if err != nil {
		return c.fail(err)
	}
	if !first {
		return nil
	}
	parent, err := instance.Parse(warmSet[warm].N, warmSet[warm].Demand)
	if err != nil {
		return c.fail(err)
	}
	d, err := instance.ParseDelta(delta)
	if err != nil {
		return c.fail(err)
	}
	child, err := d.Apply(parent.Demand)
	if err != nil {
		return c.fail(fmt.Errorf("%s: %v", id, err))
	}
	var pb planBody
	if err := json.Unmarshal(body, &pb); err != nil {
		return c.fail(fmt.Errorf("%s: decoding: %v", id, err))
	}
	if err := verifyCovering(id, instance.Instance{Name: id, Demand: child}, pb); err != nil {
		return c.fail(err)
	}
	c.remember(id, body)
	return nil
}

// checkSimulate checks a /simulate response: the sweep report must equal
// a sweep computed here from the reference covering of the warm item.
func (c *checker) checkSimulate(warm, k int, body []byte) error {
	id := fmt.Sprintf("simulate|%s|k=%d", warmSet[warm].key(), k)
	first, err := c.repeat(id, body)
	if err != nil {
		return c.fail(err)
	}
	if !first {
		return nil
	}
	var sb simulateBody
	if err := json.Unmarshal(body, &sb); err != nil {
		return c.fail(fmt.Errorf("%s: decoding: %v", id, err))
	}
	want, err := c.referenceSweep(warm, k)
	if err != nil {
		return c.fail(fmt.Errorf("%s: %v", id, err))
	}
	if !bytes.Equal(bytes.TrimSpace(compactJSON(sb.Sweep)), want) {
		return c.fail(fmt.Errorf("%s: sweep report differs from an independent sweep of the reference plan", id))
	}
	c.remember(id, body)
	return nil
}

// referenceSweep plans the warm item's reference covering and sweeps it
// with k failures, returning the compact JSON report.
func (c *checker) referenceSweep(warm, k int) ([]byte, error) {
	it := warmSet[warm]
	in, err := instance.Parse(it.N, it.Demand)
	if err != nil {
		return nil, err
	}
	var pb planBody
	if err := json.Unmarshal(c.refs[warm], &pb); err != nil {
		return nil, err
	}
	r, err := ring.New(it.N)
	if err != nil {
		return nil, err
	}
	cv, err := cover.FromVertexSets(r, pb.Cycles)
	if err != nil {
		return nil, err
	}
	nw, err := wdm.Plan(cv, in.Demand)
	if err != nil {
		return nil, err
	}
	res, err := survive.NewSimulator(nw).Sweep(survive.SweepOptions{K: k, Sample: 512, MaxScenarios: 1 << 15})
	if err != nil {
		return nil, err
	}
	if !res.Complete || res.K != k {
		return nil, errors.New("reference sweep incomplete")
	}
	return json.Marshal(res)
}

// compactJSON strips insignificant whitespace.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

// checkVerify checks a /verify response for the warm item's reference
// covering: valid, sized as sent, optimal exactly when it has ρ(n)
// cycles on K_n or meets the lower bound on a general host.
func (c *checker) checkVerify(warm int, body []byte) error {
	id := "verify|" + warmSet[warm].key()
	first, err := c.repeat(id, body)
	if err != nil {
		return c.fail(err)
	}
	if !first {
		return nil
	}
	var vb verifyBody
	if err := json.Unmarshal(body, &vb); err != nil {
		return c.fail(fmt.Errorf("%s: decoding: %v", id, err))
	}
	var pb planBody
	if err := json.Unmarshal(c.refs[warm], &pb); err != nil {
		return c.fail(err)
	}
	// /verify judges optimality by ρ(n) or the counting lower bound only.
	optimal := (pb.Rho > 0 && pb.Size == pb.Rho) || (pb.SCCLowerBound > 0 && pb.Length == pb.SCCLowerBound)
	if !vb.Valid || vb.Size != pb.Size || vb.Optimal != optimal {
		return c.fail(fmt.Errorf("%s: valid=%v size=%d optimal=%v, want true %d %v", id, vb.Valid, vb.Size, vb.Optimal, pb.Size, optimal))
	}
	c.remember(id, body)
	return nil
}

// maxProofCycles bounds the simple cycles shorterCoverExists enumerates.
const maxProofCycles = 1 << 16

// shorterCoverExists reports whether host has a cover by simple cycles of
// total length below length, by exhaustive search. Any cycle cover
// splits into simple cycles of the same total length, so "no" proves
// that no cover shorter than length exists. Hosts with more than 64
// edges, parallel edges or more than maxProofCycles simple cycles are
// refused.
func shorterCoverExists(host *graph.Graph, length int) (bool, error) {
	n := host.N()
	edge := make([]int, n*n)
	for i := range edge {
		edge[i] = -1
	}
	m := 0
	simple := true
	host.ForEachEdge(func(u, v, mult int) bool {
		if mult > 1 || m == 64 {
			simple = false
			return false
		}
		edge[u*n+v], edge[v*n+u] = m, m
		m++
		return true
	})
	if !simple {
		return false, errors.New("the host is too large or not simple for an independent proof")
	}
	// Enumerate each simple cycle once: it starts at its smallest vertex
	// s, visits only larger vertices, and its second vertex is smaller
	// than its last.
	var cycles []uint64
	onPath := make([]bool, n)
	var walk func(s, v, second int, mask uint64) bool
	walk = func(s, v, second int, mask uint64) bool {
		for w := 0; w < n; w++ {
			e := edge[v*n+w]
			if e < 0 {
				continue
			}
			if w == s && second >= 0 && second < v && bits.OnesCount64(mask) >= 2 {
				cycles = append(cycles, mask|1<<e)
				if len(cycles) > maxProofCycles {
					return false
				}
				continue
			}
			if w <= s || onPath[w] {
				continue
			}
			nextSecond := second
			if second < 0 {
				nextSecond = w
			}
			onPath[w] = true
			ok := walk(s, w, nextSecond, mask|1<<e)
			onPath[w] = false
			if !ok {
				return false
			}
		}
		return true
	}
	for s := 0; s < n; s++ {
		onPath[s] = true
		ok := walk(s, s, -1, 0)
		onPath[s] = false
		if !ok {
			return false, errors.New("the host has too many cycles for an independent proof")
		}
	}
	byEdge := make([][]uint64, m)
	for _, c := range cycles {
		for e := 0; e < m; e++ {
			if c&(1<<e) != 0 {
				byEdge[e] = append(byEdge[e], c)
			}
		}
	}
	full := uint64(1)<<m - 1
	if m == 64 {
		full = ^uint64(0)
	}
	var search func(covered uint64, total int) bool
	search = func(covered uint64, total int) bool {
		if covered == full {
			return total < length
		}
		e := bits.TrailingZeros64(^covered)
		for _, c := range byEdge[e] {
			if total+bits.OnesCount64(c) < length && search(covered|c, total+bits.OnesCount64(c)) {
				return true
			}
		}
		return false
	}
	return search(0, 0), nil
}
