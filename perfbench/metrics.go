package main

// endToEndUnits lists every bounded end-to-end metric a run without
// tracing reports, with its unit. BENCHMARK.json's end_to_end list must
// name exactly these.
var endToEndUnits = map[string]string{
	"page_p50_ms":   "ms",
	"report_p50_ms": "ms",
	"cpu_us_per_op": "us",
	"rss_peak_mb":   "MB",
	"setup_s":       "s",
}

// unboundedUnits lists the end-to-end figures a run also reports and
// records but that carry no bound: on a small shared machine their
// run-to-run spread is wider than any bound a regression gate could use
// (see README.md).
var unboundedUnits = map[string]string{
	"max_rps":       "ops/s",
	"page_p90_ms":   "ms",
	"report_p90_ms": "ms",
	"page_p95_ms":   "ms",
	"report_p95_ms": "ms",
	"page_p99_ms":   "ms",
	"report_p99_ms": "ms",
}

// perLayerUnits lists every per-layer metric the traced run reports, with
// its unit. BENCHMARK.json's per_layer list must name exactly these.
var perLayerUnits = map[string]string{
	"report.decode_json_us":             "us",
	"report.decode_binary_us":           "us",
	"report.decode_allocs":              "count",
	"report.wire_bytes_json":            "bytes",
	"report.wire_bytes_binary":          "bytes",
	"core.ingest_us":                    "us",
	"core.ingest_allocs":                "count",
	"core.violations_per_report":        "ratio",
	"core.activations_per_report":       "ratio",
	"core.ingest_guard_ratio":           "ratio",
	"core.ingest_synth_ratio":           "ratio",
	"core.rewrite_hit_us":               "us",
	"core.rewrite_miss_us":              "us",
	"core.rewrite_allocs":               "count",
	"core.rewrite_cache_hit_ratio":      "ratio",
	"core.pages_modified_ratio":         "ratio",
	"rules.apply_us":                    "us",
	"core.spilled_serve_us":             "us",
	"core.rehydrations_per_op":          "ratio",
	"core.spills_per_op":                "ratio",
	"core.compactions":                  "count",
	"core.resident_bytes_per_user":      "bytes",
	"core.spill_bytes_per_user":         "bytes",
	"origin.report_us":                  "us",
	"origin.page_us":                    "us",
	"origin.allocs_per_op":              "count",
	"http.report_us":                    "us",
	"http.page_us":                      "us",
	"http.conns_per_op":                 "ratio",
	"gateway.report_us":                 "us",
	"gateway.page_us":                   "us",
	"gateway.allocs_per_forward":        "count",
	"gateway.backend_conns_per_forward": "ratio",
	"gateway.report_overhead_ratio":     "ratio",
	"gateway.page_overhead_ratio":       "ratio",
	"loadgen.lag_p99_ms":                "ms",
	"loadgen.conns":                     "count",
	"trace.overhead_ratio":              "ratio",
}
