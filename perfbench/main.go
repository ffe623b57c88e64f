// Command perfbench is the repository's serving benchmark. It starts the
// cycled handler (server.New) behind a loopback net/http listener in
// process, drives one seeded workload against it from at most two client
// goroutines, checks every answer, and prints the end-to-end metrics.
// With --trace 1 it then replays the same request sequence through the
// layers' public functions with a span around each call and prints the
// per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is 0
// only when every answer and self-check passed. See README.md for the
// workloads, the metrics and which layer each metric belongs to.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// setupRuns is the number of set-ups per run; setup_s is their median.
const setupRuns = 5

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: warm-hit, cold-plan, mixed, or open-mixed (not in BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase (and of the traced replay)")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay; 0: end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		return options{}, errors.New("want 0 < --seconds <= 60 and --trace 0 or 1")
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	envLine, _ := json.Marshal(captureEnv()) // plain string map: cannot fail
	fmt.Fprintf(stdout, "env %s\n", envLine)

	res, err := bench(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res) // maps encode with sorted keys
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs the set-ups, the measured phase and, when tracing, the
// replay, printing human-readable lines as it goes.
func bench(opt options, stdout io.Writer) (result, error) {
	w := opt.workload
	d := time.Duration(opt.seconds * float64(time.Second))
	chk := newChecker()
	kern := newCalKernel()
	// Each set-up is timed after calibrations of its own, and setup_s is
	// the median set-up time divided by their median wall-time slowdown.
	var st *stack
	var setupCals []calibration
	setupTimes := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.stop()
		}
		cals, err := kern.calibrations(calPerPause)
		if err != nil {
			return result{}, err
		}
		setupCals = append(setupCals, cals...)
		var took time.Duration
		st, took, err = setUp(w.cfg, chk)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	rawSetupS := quantile(setupTimes, 0.5)
	setupS := rawSetupS / medianSpeed(setupCals).wall

	ph, err := measure(w, st, chk, kern, w.gen(opt.seed), d)
	st.stop()
	if err != nil {
		return result{}, err
	}
	e2e, attempted, failed := endToEndMetrics(w, ph, setupS, quietView(ph))
	problems := selfCheck(w, ph, attempted)
	if ph.firstErr != nil {
		problems = append(problems, "wrong answer: "+ph.firstErr.Error())
	}
	printE2E(stdout, w, ph, e2e, attempted, failed)
	raw, _, _ := endToEndMetrics(w, ph, rawSetupS, rawView(ph))
	fmt.Fprintf(stdout, "host: calibration kernel at %.3f× reference wall time, %.3f× reference CPU time (set-ups %.3f×); metrics read from slices %s\n",
		ph.speed.wall, ph.speed.cpu, medianSpeed(setupCals).wall, sliceList(quietView(ph).slices))
	fmt.Fprintf(stdout, "unscaled, every slice: setup_s=%.4f throughput_rps=%.2f goodput_rps=%.2f latency_p50_ms=%.4f latency_p99_ms=%.4f cpu_ms_per_req=%.4f\n",
		raw["setup_s"].Value, raw["throughput_rps"].Value, raw["goodput_rps"].Value, raw["latency_p50_ms"].Value, raw["latency_p99_ms"].Value, raw["cpu_ms_per_req"].Value)

	res := result{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !opt.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = e2e[m.name]
		}
	} else {
		pl, replayFailed, err := traced(opt, ph, chk, stdout)
		if err != nil {
			return result{}, err
		}
		if replayFailed != nil {
			problems = append(problems, "replay: "+replayFailed.Error())
			res.Correct = false
		}
		res.Metrics = pl
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	return res, nil
}

// view is what the end-to-end metrics are read from: a choice of the
// measured phase's slices and the host slowdown their times are divided
// by.
type view struct {
	slices []slice
	speed  speed
}

// quietView is the view the reported metrics use: the half of the
// slices in which the host gave the least of the machine's CPU time to
// other tenants (steal time), at the phase's calibrated slowdown. While
// the host holds a vCPU back, every request in flight on it waits, so a
// burst of steal lengthens the latency tail by more than the
// calibration's slowdown accounts for; those slices are left out. Ties
// keep phase order.
func quietView(ph phase) view {
	sl := append([]slice(nil), ph.slices...)
	sort.SliceStable(sl, func(i, j int) bool { return sl[i].steal < sl[j].steal })
	return view{slices: sl[:(len(sl)+1)/2], speed: ph.speed}
}

// sliceList names the indices of slices, in phase order.
func sliceList(sl []slice) string {
	idx := make([]int, len(sl))
	for i, x := range sl {
		idx[i] = x.index
	}
	sort.Ints(idx)
	return strings.Trim(fmt.Sprint(idx), "[]")
}

// rawView is every slice as measured, unscaled.
func rawView(ph phase) view { return view{slices: ph.slices, speed: speed{wall: 1, cpu: 1}} }

// endToEndMetrics computes every end-to-end metric of a measured phase,
// including the ones printed only on the human-readable lines. The
// rates, latency percentiles and CPU time per request pool the samples
// of the view's slices; wall times are divided by the view's wall-time
// slowdown and CPU times by its CPU-time slowdown, except that an open
// loop's arrivals keep their wall-clock rate. Allocation per request and
// the heap peak cover every slice: the host's speed does not move them.
// The heap peak is the upper quartile of the slices' peaks, so that one
// collection marking while a burst of large answers is live does not set
// it.
// Counts and ratios of failures cover the whole phase.
func endToEndMetrics(w workload, ph phase, setupS float64, v view) (map[string]metric, int, int) {
	attempted := len(ph.samples)
	failed := 0
	for _, s := range ph.samples {
		if !s.ok {
			failed++
		}
	}
	var secs float64
	var cpu time.Duration
	ok, inLimit := 0, 0
	var lat []float64
	limitMS := float64(w.limit) / float64(time.Millisecond)
	for _, sl := range v.slices {
		secs += (sl.end - sl.start).Seconds()
		cpu += sl.cpu
		for _, s := range sl.samples {
			ms := s.latencyMS() / v.speed.wall
			lat = append(lat, ms)
			if s.ok {
				ok++
				if ms <= limitMS {
					inLimit++
				}
			}
		}
	}
	// A closed loop's rate scales with the host's speed; an open loop's
	// is its arrival schedule's.
	rateSecs := secs / v.speed.wall
	if w.open {
		rateSecs = secs
	}
	var allocs uint64
	heap := make([]float64, len(ph.slices))
	for i, sl := range ph.slices {
		allocs += sl.allocs
		heap[i] = float64(sl.heapPeak) / (1 << 20)
	}
	perReq := func(x float64, n int) float64 { return x / float64(max(n, 1)) }
	n := float64(attempted)
	m := map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_rps":   {float64(ok) / rateSecs, "1/s"},
		"goodput_rps":      {float64(inLimit) / rateSecs, "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.5), "ms"},
		"latency_p99_ms":   {quantile(lat, 0.99), "ms"},
		"cpu_ms_per_req":   {perReq(cpu.Seconds()*1e3, len(lat)) / v.speed.cpu, "ms"},
		"alloc_kb_per_req": {perReq(float64(allocs)/1024, attempted), "KiB"},
		"heap_peak_mb":     {quantile(heap, 0.75), "MiB"},
		"error_ratio":      {float64(failed) / n, "ratio"},
		"shed_ratio":       {ph.promDelta["cycled_shed_total"] / n, "ratio"},
		"degraded_ratio":   {ph.promDelta["cycled_degraded_total"] / n, "ratio"},
		"latency_samples":  {float64(len(lat)), "count"},
	}
	return m, attempted, failed
}

// selfCheck verifies the cold-state invariants: every cold-plan request
// misses the covering store, and warm-hit misses nothing after set-up.
func selfCheck(w workload, ph phase, attempted int) []string {
	var out []string
	misses := ph.stats.Coverings.Misses + ph.stats.Networks.Misses
	switch w.name {
	case "cold-plan":
		if int(ph.stats.Coverings.Misses) != attempted {
			out = append(out, fmt.Sprintf("self-check: cold-plan covering-store misses %d != requests %d", ph.stats.Coverings.Misses, attempted))
		}
	case "warm-hit":
		if misses != 0 {
			out = append(out, fmt.Sprintf("self-check: warm-hit recorded %d cache misses after set-up", misses))
		}
	}
	return out
}

// printE2E writes the human-readable end-to-end report.
func printE2E(wr io.Writer, w workload, ph phase, m map[string]metric, attempted, failed int) {
	mode := fmt.Sprintf("closed loop, %d clients", clientCount)
	if w.open {
		mode = fmt.Sprintf("open loop, %.0f req/s, %d senders", w.rate, clientCount)
	}
	fmt.Fprintf(wr, "workload %s (%s): %d attempted, %d failed in %.2f s of slices (%.2f s with the calibration pauses); latency limit %v\n",
		w.name, mode, attempted, failed, ph.active.Seconds(), ph.elapsed.Seconds(), w.limit)
	names := make([]string, 0, len(m))
	//cyclecover:nondet keys are sorted immediately below
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(wr, "metric %-18s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	classes := map[string][]float64{}
	hist := histogram{}
	all := make([]float64, 0, len(ph.samples))
	var queued, onTime []float64
	for _, s := range ph.samples {
		if s.queued {
			queued = append(queued, s.latencyMS())
		} else {
			onTime = append(onTime, s.latencyMS())
		}
		ms := s.latencyMS()
		classes[classNames[s.class]] = append(classes[classNames[s.class]], ms)
		hist.add(ms)
		all = append(all, ms)
	}
	if w.open {
		fmt.Fprintf(wr, "queued: %d of %d requests fell due while both senders were busy: p50=%.3f ms p99=%.3f ms; the rest p50=%.3f ms p99=%.3f ms\n",
			len(queued), len(ph.samples), quantile(queued, 0.5), quantile(queued, 0.99), quantile(onTime, 0.5), quantile(onTime, 0.99))
	}
	fmt.Fprintf(wr, "whole phase, unscaled: p50=%.4f ms p99=%.4f ms p99.9=%.4f ms over %d samples\n", quantile(all, 0.5), quantile(all, 0.99), quantile(all, 0.999), len(all))
	keys := make([]string, 0, len(classes))
	//cyclecover:nondet keys are sorted immediately below
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := classes[k]
		fmt.Fprintf(wr, "class %-10s n=%-6d p50=%.3f ms p99=%.3f ms max=%.3f ms\n", k, len(v), quantile(v, 0.5), quantile(v, 0.99), maxOf(v))
	}
	for i, sl := range ph.slices {
		fmt.Fprintf(wr, "slice %d [%.2f s, %.2f s): %d responses, cpu %.3f s, alloc %.1f MiB, heap peak %.1f MiB, steal %.1f%%\n",
			i, sl.start.Seconds(), sl.end.Seconds(), len(sl.samples), sl.cpu.Seconds(), float64(sl.allocs)/(1<<20), float64(sl.heapPeak)/(1<<20), 100*sl.steal)
	}
	fmt.Fprintf(wr, "histogram p50<=%.3f p90<=%.3f p99<=%.3f p99.9<=%.3f ms (%d samples)\n",
		hist.quantile(0.5), hist.quantile(0.9), hist.quantile(0.99), hist.quantile(0.999), hist.total)
	st := ph.stats
	fmt.Fprintf(wr, "cache coverings hits=%d misses=%d coalesced=%d evictions=%d; networks hits=%d misses=%d coalesced=%d evictions=%d\n",
		st.Coverings.Hits, st.Coverings.Misses, st.Coverings.Coalesced, st.Coverings.Evictions,
		st.Networks.Hits, st.Networks.Misses, st.Networks.Coalesced, st.Networks.Evictions)
}

// traced runs the replay and the transport probe and assembles the
// per-layer metrics.
func traced(opt options, ph phase, chk *checker, stdout io.Writer) (map[string]metric, error, error) {
	w := opt.workload
	d := time.Duration(opt.seconds * float64(time.Second))
	// The replay runs for half the measured phase and the transport probe
	// for an eighth, at most 8 s and 2 s, so a traced run stays well under
	// twice the untraced one.
	t, err := runReplay(w, opt.seed, min(d/2, 8*time.Second), chk.verifyBodies)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	handlerUS, roundTripUS, err := transportProbe(w, opt.seed, min(d/8, 2*time.Second), chk)
	if err != nil {
		return nil, nil, fmt.Errorf("transport probe: %w", err)
	}
	path := filepath.Join(opt.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, opt.seed))
	if err := t.writeSpans(path); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	e2eP50 := 0.0
	if len(ph.samples) > 0 {
		lat := make([]float64, 0, len(ph.samples))
		for _, s := range ph.samples {
			lat = append(lat, s.latencyMS())
		}
		e2eP50 = quantile(lat, 0.5)
	}
	pl := perLayerMetrics(t, ph, handlerUS, roundTripUS, e2eP50)
	fmt.Fprintf(stdout, "replay %d requests, %d spans written to %s\n", len(t.reqs), countSpans(t), path)
	self := t.layerSelf()
	layers := make([]string, 0, len(self))
	//cyclecover:nondet keys are sorted immediately below
	for k := range self {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(stdout, "layer %-10s self %.4f s\n", l, self[l])
	}
	for _, m := range perLayer {
		fmt.Fprintf(stdout, "metric %-30s %14.4f %s\n", m.name, pl[m.name].Value, m.unit)
	}
	var replayErr error
	if t.failed > 0 {
		replayErr = fmt.Errorf("%d replayed requests failed, first: %v", t.failed, t.firstErr)
	}
	return pl, replayErr, nil
}

func countSpans(t *tracer) int {
	n := 0
	for _, s := range t.reqs {
		n += len(s)
	}
	return n
}

// perLayerMetrics derives every per-layer metric from the replay's spans,
// the transport probe and the untraced phase's counters.
func perLayerMetrics(t *tracer, ph phase, handlerUS, roundTripUS []float64, e2eP50 float64) map[string]metric {
	by := t.layerSamples()
	us := func(name string, q float64) float64 { return quantile(by[name], q) * 1e6 }
	ms := func(name string, q float64) float64 { return quantile(by[name], q) * 1e3 }
	busy := func(prefix string) float64 {
		total := 0.0
		for name, v := range by { //cyclecover:nondet summing is order-independent up to rounding
			if strings.HasPrefix(name, prefix) {
				total += sum(v)
			}
		}
		return total
	}
	out := map[string]metric{}
	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.name == name {
				out[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
		panic("perfbench: unlisted per-layer metric " + name)
	}
	set("instance.parse_us_p50", us("instance.parse", 0.5))
	set("cache.signature_us_p50", us("cache.signature", 0.5))
	set("cache.cover_hit_us_p50", us("cache.cover_hit", 0.5))
	set("cache.network_hit_us_p50", us("cache.network_hit", 0.5))
	set("encode.json_us_p50", us("encode.json", 0.5))
	bytesPer := 0.0
	if t.encodes > 0 {
		bytesPer = float64(t.encodeBytes) / float64(t.encodes)
	}
	set("encode.bytes_per_resp", bytesPer)
	hp50 := quantile(handlerUS, 0.5)
	set("server.handler_us_p50", hp50)
	set("http.overhead_us_p50", quantile(roundTripUS, 0.5)-hp50)

	set("construct.closed_form_ms_p50", ms("construct.closed_form", 0.5))
	set("construct.greedy_ms_p50", ms("construct.greedy", 0.5))
	set("construct.scc_ms_p50", ms("construct.scc", 0.5))
	set("construct.portfolio_ms_p50", ms("construct.portfolio", 0.5))
	set("construct.busy_s", busy("construct."))
	set("cover.verify_ms_p50", ms("cover.verify", 0.5))
	set("cover.verify_general_us_p50", us("cover.verify_general", 0.5))
	set("cover.busy_s", busy("cover."))
	set("wdm.plan_ms_p50", ms("wdm.plan", 0.5))
	set("wdm.plan_ms_max", maxOf(by["wdm.plan"])*1e3)
	set("wdm.busy_s", busy("wdm."))

	set("server.pool_wait_ms_p99", ms("server.pool.wait", 0.99))
	set("server.pool_coalesced", ph.promDelta["cycled_pool_coalesced_total"])
	set("server.shed_total", ph.promDelta["cycled_shed_total"])
	set("server.degraded_total", ph.promDelta["cycled_degraded_total"])
	lateness := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		lateness = append(lateness, s.latenessMS())
	}
	set("loadgen.lateness_p99_ms", quantile(lateness, 0.99))

	set("survive.sweep_ms_p50", ms("survive.sweep", 0.5))
	perS := 0.0
	if sweepS := sum(by["survive.sweep"]); sweepS > 0 {
		perS = float64(t.sweepScenarios) / sweepS
	}
	set("survive.scenarios_per_s", perS)
	set("cache.delta_ms_p50", ms("cache.delta", 0.5))

	plans := 0
	for _, s := range ph.samples {
		if strings.HasPrefix(classNames[s.class], "plan") {
			plans++
		}
	}
	hitRatio := 0.0
	if plans > 0 {
		hitRatio = 1 - float64(ph.stats.Coverings.Misses)/float64(plans)
	}
	set("cache.hit_ratio", hitRatio)
	set("cache.coalesced", float64(ph.stats.Coverings.Coalesced+ph.stats.Networks.Coalesced))
	set("cache.evictions", float64(ph.stats.Coverings.Evictions+ph.stats.Networks.Evictions))

	attributed := t.attributedMS()
	layerP50 := quantile(attributed, 0.5)
	set("replay.requests", float64(len(t.reqs)))
	set("replay.layer_ms_p50", layerP50)
	set("replay.e2e_p50_ms", e2eP50)
	share := 0.0
	if e2eP50 > 0 {
		share = 1 - layerP50/e2eP50
	}
	set("replay.unattributed_share", share)
	return out
}

// captureEnv records the toolchain, the CPU and the source revision.
func captureEnv() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	return env
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
