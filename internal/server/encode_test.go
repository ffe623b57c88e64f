package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// encodingJSONPlan is the reference the direct encoder must match: what
// writeJSON writes for a /plan body.
func encodingJSONPlan(t *testing.T, r *planResponse) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return buf.Bytes(), err
}

// encodingJSONLine is the reference for one /plan/batch line.
func encodingJSONLine(t *testing.T, l *batchPlanLine) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(l)
	return buf.Bytes(), err
}

// oracleStrings are the string shapes that matter to the escaper: plain
// ASCII (fast path), HTML-sensitive and control characters, quotes and
// backslashes, non-ASCII and invalid UTF-8, and the JavaScript line
// separators encoding/json escapes.
var oracleStrings = []string{
	"", "alltoall", "n=101;d=k1", "n=16;t=h0123456789abcdef;s=portfolio;g=deg",
	"petersen", "<script>&amp;</script>", "a<b", "b>a", "fish & chips", `quote " only`, `back\slash`,
	"tab\there\nnewline\r\x00\x1f", "\x7f", "ρ(n) — λK₉", "日本語", "\xff\xfe bad utf-8",
	"line\u2028sep\u2029", "closed-form",
}

// oracleFloats are costs at 0, inside encoding/json's fixed-notation
// range, at both of its edges and beyond them.
var oracleFloats = []float64{
	0, math.Copysign(0, -1), 1, 12.5, 1234.5678, 1e-6, 9.99999e-7, 1e-7, 1.5e-10,
	1e21, 9.99999999e20, 1e22, 123456789012345678901234.0, -3.25, -1e-7, -1e21,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2,
}

func randString(rng *rand.Rand) string { return oracleStrings[rng.Intn(len(oracleStrings))] }

func randInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return -rng.Intn(1000)
	case 2:
		return rng.Intn(1 << 20)
	}
	return int(rng.Int63()) - math.MaxInt64/2
}

func randCycles(rng *rand.Rand) [][]int {
	switch rng.Intn(5) {
	case 0:
		return nil // empty covering: "cycles": null
	case 1:
		return [][]int{} // non-nil empty: "cycles": []
	}
	m := make([][]int, rng.Intn(6))
	for i := range m {
		switch rng.Intn(6) {
		case 0:
			m[i] = nil
		case 1:
			m[i] = []int{}
		default:
			row := make([]int, 1+rng.Intn(6))
			for j := range row {
				row[j] = randInt(rng)
			}
			m[i] = row
		}
	}
	return m
}

func randPlan(rng *rand.Rand) *planResponse {
	pick := func() bool { return rng.Intn(2) == 0 }
	r := &planResponse{
		Signature:   randString(rng),
		N:           randInt(rng),
		Demand:      randString(rng),
		Size:        randInt(rng),
		Optimal:     pick(),
		Degraded:    pick(),
		Stale:       pick(),
		Method:      randString(rng),
		Cycles:      randCycles(rng),
		Wavelengths: randInt(rng),
		ADMs:        randInt(rng),
		MaxTransit:  randInt(rng),
		CacheHit:    pick(),
	}
	if pick() {
		r.Strategy = randString(rng)
	}
	if pick() {
		r.Rho = randInt(rng)
	}
	if pick() {
		r.Length, r.SCCLowerBound = randInt(rng), randInt(rng)
	}
	if pick() {
		r.Cost = oracleFloats[rng.Intn(len(oracleFloats))]
	} else {
		r.Cost = math.Ldexp(rng.Float64(), rng.Intn(160)-80) * float64(1-2*rng.Intn(2))
	}
	return r
}

// TestAppendPlanMatchesEncodingJSON is the oracle property test of the
// response-encoding contract (encode.go): on random plan responses and
// batch lines — escaped and non-ASCII strings, costs at and around the
// fixed-notation edges, nil vs empty cycles, error-only lines — the
// direct appenders write exactly encoding/json's bytes.
func TestAppendPlanMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prefix := []byte("kept|")
	for i := 0; i < 5000; i++ {
		r := randPlan(rng)
		want, err := encodingJSONPlan(t, r)
		if err != nil {
			t.Fatalf("reference encoder failed on %+v: %v", r, err)
		}
		got, err := appendPlan(append([]byte(nil), prefix...), r, true)
		if err != nil {
			t.Fatalf("appendPlan(indent) failed on %+v: %v", r, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendPlan(indent) diverges on %+v:\ngot  %q\nwant %q", r, got, want)
		}
		compact, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := appendPlan(nil, r, false); !bytes.Equal(got, compact) {
			t.Fatalf("appendPlan(compact) diverges on %+v:\ngot  %q\nwant %q", r, got, compact)
		}

		l := &batchPlanLine{Index: rng.Intn(MaxBatchItems)}
		switch rng.Intn(3) {
		case 0:
			l.Plan = r
		case 1:
			l.Error = randString(rng) // may be "": an index-only line
		default:
			l.Plan, l.Error = r, randString(rng)
		}
		wantLine, err := encodingJSONLine(t, l)
		if err != nil {
			t.Fatal(err)
		}
		gotLine, err := appendBatchLine(nil, l)
		if err != nil || !bytes.Equal(gotLine, wantLine) {
			t.Fatalf("appendBatchLine diverges on %+v (err %v):\ngot  %q\nwant %q", l, err, gotLine, wantLine)
		}
	}
}

// TestAppendPlanRejectsNonFinite checks that a cost encoding/json refuses
// is an error for the direct encoder too, not a body.
func TestAppendPlanRejectsNonFinite(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &planResponse{Method: "greedy", Cost: c}
		if _, err := encodingJSONPlan(t, r); err == nil {
			t.Fatalf("reference encoder accepted cost %v", c)
		}
		if _, err := appendPlan(nil, r, true); err == nil {
			t.Errorf("appendPlan accepted cost %v", c)
		}
		if _, err := appendBatchLine(nil, &batchPlanLine{Plan: r}); err == nil {
			t.Errorf("appendBatchLine accepted cost %v", c)
		}
	}
}
