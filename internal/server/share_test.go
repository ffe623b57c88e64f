package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// sharedQueries are warm /plan requests spanning the response shapes:
// K_n (rho), λK_n, a random ring, a hub, the empty demand ("cycles":
// null) and two general hosts (length, sccLowerBound, no WDM facts).
var sharedQueries = []struct {
	n    int
	spec string
}{
	{13, "alltoall"}, {21, "lambda:2"}, {40, "random:0.5:3"}, {30, "hub:0"},
	{7, "random:0:1"}, {10, "petersen"}, {16, "cubic:7"},
}

// fetch is a goroutine-safe GET returning the body, or an error instead
// of failing the test from a non-test goroutine.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, err
}

// TestConcurrentHitsShareCovering drives concurrent warm /plan and
// /plan/batch hits against the shared, uncloned coverings the cache hands
// the serving path (cache.Plans.PlannedCtx). Under -race it catches any
// handler write to the shared value; afterwards it asserts that the
// cached coverings are the same objects with the same cycles as before
// the load, and that every hit body equals the warm reference.
func TestConcurrentHitsShareCovering(t *testing.T) {
	s, ts := newTestServer(t)
	refs := make([][]byte, len(sharedQueries))
	type snapshot struct {
		in     instance.Instance
		sig    string
		cycles [][]int // deep copy of the cached vertex lists
	}
	snaps := make([]snapshot, len(sharedQueries))
	var batch strings.Builder
	urls := make([]string, len(sharedQueries))
	for i, q := range sharedQueries {
		urls[i] = fmt.Sprintf("%s/plan?n=%d&demand=%s", ts.URL, q.n, q.spec)
		if _, err := fetch(urls[i]); err != nil { // miss: plans it
			t.Fatalf("%s: %v", urls[i], err)
		}
		ref, err := fetch(urls[i])
		if err != nil {
			t.Fatalf("%s: %v", urls[i], err)
		}
		refs[i] = ref
		in, err := instance.Parse(q.n, q.spec)
		if err != nil {
			t.Fatal(err)
		}
		sig := cache.Signature(in, cache.Options{})
		res, _, ok := s.Plans().LookupPlanned(in, sig)
		if !ok {
			t.Fatalf("%s: not cached after two requests", urls[i])
		}
		snaps[i] = snapshot{in: in, sig: sig}
		for _, c := range res.Covering.Cycles {
			snaps[i].cycles = append(snaps[i].cycles, slices.Clone(c.Vertices()))
		}
		fmt.Fprintf(&batch, "{\"n\": %d, \"demand\": %q}\n", q.n, q.spec)
	}
	before := make([]*cache.CoverResult, len(snaps))
	for i, sn := range snaps {
		res, _, _ := s.Plans().LookupPlanned(sn.in, sn.sig)
		before[i] = &res
	}

	const clients, rounds = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(sharedQueries)
				body, err := fetch(urls[i])
				if err != nil {
					errs <- err
					continue
				}
				if !bytes.Equal(body, refs[i]) {
					errs <- fmt.Errorf("%s: hit body diverged from the warm reference", urls[i])
				}
				if r%3 != 0 {
					continue
				}
				resp, err := http.Post(ts.URL+"/plan/batch", "application/x-ndjson", strings.NewReader(batch.String()))
				if err != nil {
					errs <- err
					continue
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					continue
				}
				for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
					var l batchPlanLine
					if err := json.Unmarshal(line, &l); err != nil || l.Plan == nil || !l.Plan.CacheHit {
						errs <- fmt.Errorf("batch line %s: not a cache hit (err %v)", line, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i, sn := range snaps {
		res, _, ok := s.Plans().LookupPlanned(sn.in, sn.sig)
		if !ok {
			t.Fatalf("%s: evicted under load", urls[i])
		}
		if res.Covering != before[i].Covering {
			t.Errorf("%s: cached covering replaced during hits", urls[i])
		}
		if len(res.Covering.Cycles) != len(sn.cycles) {
			t.Fatalf("%s: cached covering has %d cycles, had %d", urls[i], len(res.Covering.Cycles), len(sn.cycles))
		}
		for j, c := range res.Covering.Cycles {
			if !slices.Equal(c.Vertices(), sn.cycles[j]) {
				t.Fatalf("%s: cached cycle %d changed: %v, was %v", urls[i], j, c.Vertices(), sn.cycles[j])
			}
		}
	}
}

// TestPlanBodiesMatchEncodingJSON checks the direct encoder end to end:
// every /plan body (miss and hit) and /plan/batch line the handlers
// write re-encodes, through encoding/json, to exactly the same bytes.
func TestPlanBodiesMatchEncodingJSON(t *testing.T) {
	_, ts := newTestServer(t)
	var batch strings.Builder
	queries := []string{"n=99&demand=lambda:3", "n=11&strategy=portfolio"}
	batch.WriteString("{\"n\": 99, \"demand\": \"lambda:3\"}\n{\"n\": 11, \"strategy\": \"portfolio\"}\n")
	for _, q := range sharedQueries {
		queries = append(queries, fmt.Sprintf("n=%d&demand=%s", q.n, q.spec))
		fmt.Fprintf(&batch, "{\"n\": %d, \"demand\": %q}\n", q.n, q.spec)
	}
	for _, q := range queries {
		for pass := 0; pass < 2; pass++ {
			body, err := fetch(ts.URL + "/plan?" + q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var r planResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if want, _ := encodingJSONPlan(t, &r); !bytes.Equal(body, want) {
				t.Fatalf("%s pass %d: body differs from encoding/json:\ngot  %.300q\nwant %.300q", q, pass, body, want)
			}
		}
	}
	batch.WriteString("not json\n{\"n\": 2}\n")
	resp, err := http.Post(ts.URL+"/plan/batch", "application/x-ndjson", strings.NewReader(batch.String()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	errorsOnly := 0
	for _, line := range lines {
		var l batchPlanLine
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("batch line %q: %v", line, err)
		}
		if l.Plan == nil {
			errorsOnly++
		}
		if want, _ := encodingJSONLine(t, &l); !bytes.Equal(line, want) {
			t.Fatalf("batch line differs from encoding/json:\ngot  %.300q\nwant %.300q", line, want)
		}
	}
	if errorsOnly != 2 {
		t.Fatalf("%d error-only batch lines, want 2 (bad JSON, bad ring size)", errorsOnly)
	}
}
