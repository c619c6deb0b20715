package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric exactly as BENCHMARK.json lists
// it; TestMetricTablesMatchBenchmarkJSON holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports, for every workload.
// Bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression. Each bound is at least three
// times the metric's own spread (interquartile range over median), so the
// noise between two sets of runs of the same code stays inside it. The
// spreads measured with 20 s runs on a 2-vCPU 2.1 GHz Xeon virtual
// machine shared with other tenants, per workload (figures, campaign,
// serve, corpus) and the largest of the four:
//
//	metric          one seed, 6 runs           ten seeds, 10 runs
//	setup_s         .17 .23 .10 .16            .26 .18 .20 .10
//	op_p50_ms       .07 .13 .07 .08  -> .13    .10 .12 .04 .09  -> .12
//	op_p99_ms       .09 .11 .09 .15  -> .15    .14 .15 .18 .11  -> .18
//	work_per_cpu_s  .06 .12 .03 .11  -> .12    .07 .14 .15 .07  -> .15
//	peak_rss_mb     .01 .05 .06 .12  -> .12    .02 .13 .18 .12  -> .18
//
// Three times the one-seed spread exceeds 0.25 for every metric, so every
// bound is 0.25, the largest BENCHMARK.json admits; setup_s, whose spread
// the bound need not cover, shares it. A 10% bound would flag many
// same-code reruns on this host as regressions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"work_per_cpu_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the metrics a traced run reports, for every workload; a
// layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	// CPU profile attribution: stage.* is inclusive (nearest pipeline stage
	// file on the stack), everything else is self time of the innermost
	// module frame (see profile.go).
	for _, st := range pipelineStages {
		defs = append(defs, metricDef{"stage." + st + ".cpu_s", "s", "lower", 0})
	}
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s", "lower", 0})
	}
	defs = append(defs,
		metricDef{"profile.cpu_s", "s", "lower", 0},
		metricDef{"profile.attributed_share", "share", "higher", 0},
		metricDef{"gc.cycles", "count", "lower", 0},
		metricDef{"heap.alloc_mb", "MiB", "lower", 0},
	)
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"exp." + id + ".wall_s", "s", "lower", 0})
	}
	return append(defs, []metricDef{
		{"progen.generate_s", "s", "lower", 0},
		{"analysis.ace_s", "s", "lower", 0},
		{"progen.characterize_s", "s", "lower", 0},
		{"vm.batch_s", "s", "lower", 0},
		{"vm.faulted_batch_s", "s", "lower", 0},
		{"runner.busy_s", "s", "lower", 0},
		{"runner.speedup", "x", "higher", 0},
		{"snap.encode_ms", "ms", "lower", 0},
		{"snap.decode_ms", "ms", "lower", 0},
		{"snap.bytes", "bytes", "lower", 0},
		{"campaign.golden_s", "s", "lower", 0},
		{"server.hits", "count", "higher", 0},
		{"server.misses", "count", "lower", 0},
		{"server.dedup", "count", "higher", 0},
		{"server.rejected", "count", "lower", 0},
		{"server.hit_ratio", "share", "higher", 0},
		{"server.overhead_ms_p50", "ms", "lower", 0},
		{"server.compute_ms_p50", "ms", "lower", 0},
		{"loadgen.late_p99_ms", "ms", "lower", 0},
		{"serve.warm_p50_ms", "ms", "lower", 0},
		{"serve.warm_p99_ms", "ms", "lower", 0},
		{"serve.cold_p50_ms", "ms", "lower", 0},
		{"serve.cold_p90_ms", "ms", "lower", 0},
		{"sim_mcycles_per_s", "M/s", "higher", 0},
		{"trials_per_s", "1/s", "higher", 0},
		{"minstr_per_s", "M/s", "higher", 0},
		{"sim_cycles", "count", "higher", 0},
		{"trials", "count", "higher", 0},
		{"outcome.detected", "count", "higher", 0},
		{"outcome.masked", "count", "higher", 0},
		{"outcome.recovered", "count", "higher", 0},
		{"outcome.not_fired", "count", "lower", 0},
		{"outcome.unprotected_sdc", "count", "lower", 0},
		{"instructions", "count", "higher", 0},
		{"serve.requests", "count", "higher", 0},
		{"trace.overhead_s", "s", "lower", 0},
		{"trace.spans", "count", "higher", 0},
	}...)
}()

// exactCounts are the per-layer metrics that are deterministic functions
// of the workload, seed and run length: two runs of the same code must
// report them identically.
var exactCounts = []string{
	"sim_cycles", "trials", "instructions", "serve.requests",
	"outcome.detected", "outcome.masked", "outcome.recovered",
	"outcome.not_fired", "outcome.unprotected_sdc",
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0,1]); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
