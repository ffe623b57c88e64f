package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// TestQuantileMatchesSortedReference checks the nearest-rank quantile
// against a sorted copy indexed directly, and the histogram quantile
// against the same reference to within one bucket.
func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4096} {
		vals := make([]float64, n)
		h := histogram{}
		for i := range vals {
			vals[i] = rng.ExpFloat64() * 5 // ms, heavy-ish tail
			h.add(vals[i])
		}
		ref := append([]float64(nil), vals...)
		sort.Float64s(ref)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(float64(n)*q + 0.999999999)
			if rank < 1 {
				rank = 1
			}
			want := ref[rank-1]
			shuffled := append([]float64(nil), vals...)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := quantile(shuffled, q); got != want {
				t.Errorf("n=%d q=%v: quantile %v, want %v", n, q, got, want)
			}
			got := h.quantile(q)
			if got < want || bucketOf(got*0.999999) != bucketOf(want) && want > histMin {
				t.Errorf("n=%d q=%v: histogram quantile %v not the upper edge of %v's bucket", n, q, got, want)
			}
		}
		if h.total != uint64(n) {
			t.Errorf("histogram holds %d samples, want %d", h.total, n)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

// TestHistogramBucketEdges checks that every value lies below its
// bucket's upper edge and at or above the previous bucket's.
func TestHistogramBucketEdges(t *testing.T) {
	for _, v := range []float64{0.0011, 0.01, 0.5, 1, 3.3, 47, 999, 9999} {
		i := bucketOf(v)
		if v >= bucketUpper(i)*(1+1e-12) || (i > 0 && v < bucketUpper(i-1)*(1-1e-12)) {
			t.Errorf("%v in bucket %d = [%v, %v)", v, i, bucketUpper(i-1), bucketUpper(i))
		}
	}
}

// TestOpenScheduleReproducible checks that the open-loop schedule and
// requests are a pure function of the seed, arrive in order, and run at
// the configured rate.
func TestOpenScheduleReproducible(t *testing.T) {
	w, _ := findWorkload("open-mixed")
	draw := func(seed int64) []request {
		s := w.gen(seed)
		out := make([]request, 3000)
		for i := range out {
			out[i], _ = s.next()
		}
		return out
	}
	a, b, c := draw(5), draw(5), draw(6)
	same := func(x, y []request) bool {
		for i := range x {
			if x[i].at != y[i].at || x[i].kind != y[i].kind || x[i].item != y[i].item || x[i].delta != y[i].delta || x[i].k != y[i].k || x[i].warm != y[i].warm {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if same(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, a[i].at, i-1, a[i-1].at)
		}
	}
	if rate := float64(len(a)) / a[len(a)-1].at.Seconds(); rate < w.rate*0.9 || rate > w.rate*1.1 {
		t.Errorf("mean arrival rate %.1f/s, want about %v/s", rate, w.rate)
	}
}

// TestColdStreamsAreFresh checks that cold plans never repeat, never
// name a warm item, and never carry a uniform λK_n demand on an even
// ring (which the process-global even-n memo would serve).
func TestColdStreamsAreFresh(t *testing.T) {
	warm := map[string]bool{}
	for _, it := range warmSet {
		warm[it.key()] = true
	}
	for _, name := range []string{"cold-plan", "mixed", "open-mixed"} {
		w, _ := findWorkload(name)
		s := w.gen(3)
		seen := map[string]bool{}
		classes := map[string]int{}
		for i := 0; i < 4000; i++ {
			r, _ := s.next()
			if !r.cold {
				continue
			}
			k := r.item.key()
			if seen[k] || warm[k] {
				t.Fatalf("%s: cold request %s repeats", name, k)
			}
			seen[k] = true
			in, err := parseItem(r.item)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, k, err)
			}
			if _, ok := construct.UniformLambda(in.Demand); ok && !in.IsGeneral() && in.N()%2 == 0 {
				t.Fatalf("%s: %s is a uniform demand on an even ring", name, k)
			}
			classes[constructSpan(in, r.item.Strategy)]++
		}
		if len(seen) == 0 {
			t.Fatalf("%s: no cold requests", name)
		}
		t.Logf("%s: %d cold requests by construction path: %v", name, len(seen), classes)
	}
}

// TestMetricNamesMatchBenchmarkJSON checks every metric name and unit
// against BENCHMARK.json and the name grammar.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			g := got[i]
			if g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, want[i])
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, g.Name, g.Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
}

// runOnce runs the command and decodes its last line.
func runOnce(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v (stderr %s)", args, lines[len(lines)-1], err, errOut.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%v: exit %d, result %+v\n%s", args, code, res, out.String())
	}
	return res
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly,
// untraced and traced, and checks that exactly the declared metrics
// come out, and that each workload's traced replay reaches the layers
// it exists to measure.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	reaches := map[string][]string{
		"warm-hit":   {"cache.cover_hit_us_p50", "cache.network_hit_us_p50", "encode.json_us_p50", "server.handler_us_p50", "cache.hit_ratio"},
		"cold-plan":  {"construct.closed_form_ms_p50", "construct.greedy_ms_p50", "construct.scc_ms_p50", "construct.portfolio_ms_p50", "cover.verify_ms_p50", "cover.verify_general_us_p50", "wdm.plan_ms_p50", "wdm.busy_s"},
		"mixed":      {"survive.sweep_ms_p50", "survive.scenarios_per_s", "cache.delta_ms_p50", "server.pool_wait_ms_p99"},
		"open-mixed": {"survive.sweep_ms_p50", "survive.scenarios_per_s", "cache.delta_ms_p50", "loadgen.lateness_p99_ms", "server.pool_wait_ms_p99"},
	}
	for _, w := range append(append([]workload(nil), workloads...), extraWorkloads...) {
		seconds := "1.2"
		if w.name == "cold-plan" {
			// The replay runs for half of --seconds. Seed 2's first
			// closed-form λK_n is its 13th cold request, and under the
			// race detector 0.6 s does not always get that far.
			seconds = "4"
		}
		for _, trace := range []string{"0", "1"} {
			res := runOnce(t, "--workload", w.name, "--seed", "2", "--seconds", seconds, "--trace", trace)
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%s: metric %s missing or unit %q", w.name, trace, m.name, got.Unit)
				}
			}
			if trace == "1" {
				for _, name := range reaches[w.name] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: traced replay reported %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestReplayEncodesLikeTheServer checks that the replay's mirror of the
// /plan answer encodes byte for byte like the server's answer, so the
// encode span times the same work.
func TestReplayEncodesLikeTheServer(t *testing.T) {
	chk := newChecker()
	st, _, err := setUp(workloads[0].cfg, chk)
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()
	tr := &tracer{base: now()}
	rp, err := newReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.pool.Close()
	for i, it := range warmSet {
		rt := &reqTrace{t: tr}
		resp, err := rp.planStep(context.Background(), rt, rt.begin(rootSpan, -1), it)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), chk.refs[i]) {
			t.Errorf("%s: replay encodes %d bytes, server answered %d", it.key(), buf.Len(), len(chk.refs[i]))
		}
	}
}

// TestSelfTimes checks span self time: duration minus direct children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: rootSpan, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "b", ID: 2, Parent: 1, Start: 20, End: 30},
		{Name: "c", ID: 3, Parent: 1, Start: 30, End: 55},
		{Name: "d", ID: 4, Parent: 0, Start: 70, End: 90},
	}
	got := selfTimes(spans)
	want := []int64{30, 15, 10, 25, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	tr := &tracer{reqs: [][]span{spans}}
	if a := tr.attributedMS(); len(a) != 1 || a[0] != 70e-6 {
		t.Errorf("attributed %v ms, want 7e-5", a)
	}
}

// TestShorterCoverExists checks the independent optimality proof on the
// Petersen graph, whose shortest cycle cover has length 21, one above
// the counting lower bound.
func TestShorterCoverExists(t *testing.T) {
	p := instance.Petersen()
	if shorter, err := shorterCoverExists(p.Host, 21); err != nil || shorter {
		t.Errorf("Petersen below 21: shorter=%v err=%v, want false nil", shorter, err)
	}
	if shorter, err := shorterCoverExists(p.Host, 22); err != nil || !shorter {
		t.Errorf("Petersen below 22: shorter=%v err=%v, want true nil", shorter, err)
	}
	multi := graph.New(3)
	multi.AddEdgeMulti(0, 1, 2)
	multi.AddEdge(1, 2)
	multi.AddEdge(0, 2)
	if _, err := shorterCoverExists(multi, 5); err == nil {
		t.Error("a multigraph host should be refused")
	}
}

// TestSplitBatchLine checks the batch-line splitter on the encoder's
// output shape.
func TestSplitBatchLine(t *testing.T) {
	idx, plan, err := splitBatchLine([]byte(`{"index":12,"plan":{"n":5,"x":[1,2]}}`))
	if err != nil || idx != 12 || string(plan) != `{"n":5,"x":[1,2]}` {
		t.Errorf("got %d %q %v", idx, plan, err)
	}
	if _, _, err := splitBatchLine([]byte(`{"index":3,"error":"boom"}`)); err == nil {
		t.Error("a line without a plan should be an error")
	}
}

// TestSampleLog checks that samples survive block boundaries in order,
// that release empties the log, and that ticks clamp instead of
// wrapping.
func TestSampleLog(t *testing.T) {
	var l sampleLog
	n := 2*sampleChunk + 17
	for i := 0; i < n; i++ {
		if got := l.add(sample{latency: uint32(i)}); got != i {
			t.Fatalf("add %d returned index %d", i, got)
		}
	}
	l.at(sampleChunk + 3).ok = true
	all := l.appendTo(nil)
	if len(all) != n {
		t.Fatalf("%d samples, want %d", len(all), n)
	}
	for i, s := range all {
		if s.latency != uint32(i) || s.ok != (i == sampleChunk+3) {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
	l.release()
	if l.n != 0 || len(l.blocks) != 0 || len(l.appendTo(nil)) != 0 {
		t.Error("release left samples behind")
	}
	if ticks(-time.Second) != 0 || ticks(time.Hour) != math.MaxUint32 || ticks(time.Millisecond) != 10000 {
		t.Error("ticks: wrong conversion or clamp")
	}
}

// TestSpooledWrongAnswerFails checks the deferred path: an answer held in
// the spool during the phase and found wrong afterwards marks its sample
// failed and records the error, and a spooled copy outlives the client
// buffer it came from.
func TestSpooledWrongAnswerFails(t *testing.T) {
	chk := newChecker()
	sd := &sender{}
	r := request{kind: kindPlan, item: planItem{N: 13, Demand: "lambda:3"}, cold: true}
	if r.quick() {
		t.Fatal("a cold plan must be checked after the phase")
	}
	body := []byte(`{"n":13,"size":1,"cycles":[[0,1,2]]}`)
	sd.settle(chk, r, 200, body, nil, sample{})
	copy(body, "xxxx")
	if got := sd.log.at(0); !got.ok {
		t.Fatal("a spooled answer counts as correct until it is checked")
	}
	if string(sd.pending[0].body[:4]) != `{"n"` {
		t.Fatal("the spool did not copy the body")
	}
	sd.checkPending(chk)
	if sd.log.at(0).ok || chk.firstErr == nil {
		t.Errorf("wrong spooled answer: ok=%v firstErr=%v, want false and an error", sd.log.at(0).ok, chk.firstErr)
	}
	if len(sd.spool.maps) != 0 {
		t.Error("checkPending left the spool mapped")
	}
}

// TestCalibrationKernelIsFixed checks that the calibration kernel does
// the same work on every call and that a calibration times it.
func TestCalibrationKernelIsFixed(t *testing.T) {
	k := newCalKernel()
	want := k.unit()
	if want == 0 {
		t.Fatal("kernel unit failed")
	}
	if got := newCalKernel().unit(); got != want {
		t.Fatalf("a second kernel's checksum %d, want %d", got, want)
	}
	cals, err := k.calibrations(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cals {
		if c.wall <= 0 || c.cpu <= 0 {
			t.Errorf("calibration %+v: want positive wall and CPU time", c)
		}
	}
	sp := medianSpeed([]calibration{{wall: calRefWall, cpu: 2 * calRefCPU}, {wall: 3 * calRefWall, cpu: calRefCPU}, {wall: 2 * calRefWall, cpu: 3 * calRefCPU}})
	if sp.wall != 2 || sp.cpu != 2 {
		t.Errorf("medianSpeed = %+v, want wall 2 and cpu 2", sp)
	}
}

// TestParseSteal checks the /proc/stat reading behind the slices' steal
// shares.
func TestParseSteal(t *testing.T) {
	steal, total := parseSteal("cpu  100 5 30 800 10 0 5 50 7 0")
	if steal != 50 || total != 1000 {
		t.Errorf("parseSteal = %d, %d; want 50, 1000", steal, total)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 x 4 5 6 7 8"} {
		if s, tot := parseSteal(bad); s != 0 || tot != 0 {
			t.Errorf("parseSteal(%q) = %d, %d; want 0, 0", bad, s, tot)
		}
	}
}

// TestQuietViewAndScaling checks that the reported metrics read the half
// of the slices with the least steal, and that wall times and CPU times
// are divided by their own slowdowns, except an open loop's rate.
func TestQuietViewAndScaling(t *testing.T) {
	ms := func(v float64) uint32 { return ticks(time.Duration(v * float64(time.Millisecond))) }
	steals := []float64{0.30, 0.01, 0.20, 0.01, 0.00, 0.50}
	var ph phase
	for i, st := range steals {
		sl := slice{index: i, start: time.Duration(i) * time.Second, end: time.Duration(i+1) * time.Second,
			cpu: 100 * time.Millisecond, allocs: 1024, heapPeak: 1 << 20, steal: st}
		// Quiet slices answer in 2 ms, noisy ones in 20 ms; ten each.
		lat := 2.0
		if st > 0.1 {
			lat = 20
		}
		for j := 0; j < 10; j++ {
			s := sample{latency: ms(lat), slice: uint8(i), ok: true}
			sl.samples = append(sl.samples, s)
			ph.samples = append(ph.samples, s)
		}
		ph.slices = append(ph.slices, sl)
	}
	ph.speed = speed{wall: 2, cpu: 4}
	v := quietView(ph)
	if got := sliceList(v.slices); got != "1 3 4" {
		t.Fatalf("quiet slices %q, want \"1 3 4\"", got)
	}
	closed := workload{limit: 5 * time.Millisecond}
	m, attempted, failed := endToEndMetrics(closed, ph, 0.5, v)
	if attempted != 60 || failed != 0 {
		t.Fatalf("attempted %d failed %d, want 60 and 0", attempted, failed)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("latency_p50_ms", m["latency_p50_ms"].Value, 1)
	approx("latency_p99_ms", m["latency_p99_ms"].Value, 1)
	approx("throughput_rps", m["throughput_rps"].Value, 20) // 30 answers in 3 s, at twice the speed
	approx("goodput_rps", m["goodput_rps"].Value, 20)
	approx("cpu_ms_per_req", m["cpu_ms_per_req"].Value, 2.5) // 300 ms over 30 answers, a quarter
	approx("alloc_kb_per_req", m["alloc_kb_per_req"].Value, 0.1)
	approx("heap_peak_mb", m["heap_peak_mb"].Value, 1)
	open := workload{open: true, limit: 5 * time.Millisecond}
	m, _, _ = endToEndMetrics(open, ph, 0.5, v)
	approx("open throughput_rps", m["throughput_rps"].Value, 10)
	raw, _, _ := endToEndMetrics(closed, ph, 0.5, rawView(ph))
	approx("unscaled latency_p99_ms", raw["latency_p99_ms"].Value, 20)
	approx("unscaled goodput_rps", raw["goodput_rps"].Value, 30.0/6)
}
