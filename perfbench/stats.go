package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of samples by the
// nearest-rank rule on the sorted values: the smallest sample with at
// least ⌈q·n⌉ samples at or below it. samples is sorted in place. An
// empty sample set has no quantile and reports 0.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// maxOf returns the largest sample (0 for none).
func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		if v > m {
			m = v
		}
	}
	return m
}

// sum adds the samples.
func sum(samples []float64) float64 {
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s
}

// histBuckets is the number of log-spaced buckets per decade of the
// latency histogram; histDecades decades starting at histMin are kept.
const (
	histBuckets = 20
	histDecades = 7
	histMin     = 0.001 // ms: 1 µs
)

// histogram is a log-bucketed latency histogram: bucket i holds values
// in [histMin·10^(i/histBuckets), histMin·10^((i+1)/histBuckets)), so
// every bucket spans the same ≈12% relative width. Values below histMin
// land in bucket 0, values past the top in the last bucket.
type histogram struct {
	counts [histBuckets * histDecades]uint64
	total  uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= histMin {
		return 0
	}
	i := int(math.Floor(math.Log10(v/histMin) * histBuckets))
	if i < 0 {
		return 0
	}
	if i >= histBuckets*histDecades {
		return histBuckets*histDecades - 1
	}
	return i
}

// bucketUpper is the exclusive upper edge of bucket i.
func bucketUpper(i int) float64 {
	return histMin * math.Pow(10, float64(i+1)/histBuckets)
}

// add records one value.
func (h *histogram) add(v float64) {
	h.counts[bucketOf(v)]++
	h.total++
}

// quantile returns the upper edge of the bucket holding the nearest-rank
// q-quantile: an upper bound within one bucket width of the exact value.
func (h *histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(h.counts) - 1)
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric, its unit and which direction is better.
type metricSpec struct {
	name   string
	unit   string
	better string
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. error_ratio, shed_ratio and degraded_ratio are
// printed on the human-readable lines only: on a healthy run they are 0,
// and a metric whose median is 0 has no relative spread to bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"goodput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"alloc_kb_per_req", "KiB", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A metric whose layer a workload never reaches
// reports 0. The end-to-end metric each should move, and on which
// workload, is the table in README.md.
var perLayer = []metricSpec{
	// Warm path: moved by parse, signature, clone, encode and transport
	// work; predicted to move warm-hit throughput/latency/cpu/alloc.
	{"instance.parse_us_p50", "us", "lower"},
	{"cache.signature_us_p50", "us", "lower"},
	{"cache.cover_hit_us_p50", "us", "lower"},
	{"cache.network_hit_us_p50", "us", "lower"},
	{"encode.json_us_p50", "us", "lower"},
	{"encode.bytes_per_resp", "bytes", "lower"},
	{"server.handler_us_p50", "us", "lower"},
	{"http.overhead_us_p50", "us", "lower"},
	// Cold path: constructions, verification, WDM planning; predicted to
	// move cold-plan throughput and latency.
	{"construct.closed_form_ms_p50", "ms", "lower"},
	{"construct.greedy_ms_p50", "ms", "lower"},
	{"construct.scc_ms_p50", "ms", "lower"},
	{"construct.portfolio_ms_p50", "ms", "lower"},
	{"construct.busy_s", "s", "lower"},
	{"cover.verify_ms_p50", "ms", "lower"},
	{"cover.verify_general_us_p50", "us", "lower"},
	{"cover.busy_s", "s", "lower"},
	{"wdm.plan_ms_p50", "ms", "lower"},
	{"wdm.plan_ms_max", "ms", "lower"},
	{"wdm.busy_s", "s", "lower"},
	// Queueing under the open loop.
	{"server.pool_wait_ms_p99", "ms", "lower"},
	{"server.pool_coalesced", "count", "higher"},
	{"server.shed_total", "count", "lower"},
	{"server.degraded_total", "count", "lower"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
	// Survivability sweeps and delta repair (mixed and open-mixed only).
	{"survive.sweep_ms_p50", "ms", "lower"},
	{"survive.scenarios_per_s", "1/s", "higher"},
	{"cache.delta_ms_p50", "ms", "lower"},
	// Cache behaviour, from Plans.Stats over the measured phase.
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.coalesced", "count", "higher"},
	{"cache.evictions", "count", "lower"},
	// How much of the untraced latency the replay's layer spans explain.
	{"replay.requests", "count", "higher"},
	{"replay.layer_ms_p50", "ms", "lower"},
	{"replay.e2e_p50_ms", "ms", "lower"},
	{"replay.unattributed_share", "ratio", "lower"},
}
