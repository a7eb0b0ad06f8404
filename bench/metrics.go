package main

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units, in the same order, with which way
// is better and, end to end, the bound (TestBenchmarkJSONMatches).
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a worker or requester sees, reported by every
// untraced run.
var endToEnd = []metricSpec{
	{"answers_per_s", "answers/s"},
	{"assign_p50_ms", "ms"},
	{"assign_p90_ms", "ms"},
	{"submit_p50_ms", "ms"},
	{"submit_p90_ms", "ms"},
	{"status_p50_ms", "ms"},
	{"status_p90_ms", "ms"},
	{"answers_per_task", "answers"},
	{"accuracy", "fraction"},
	{"setup_s", "s"},
	{"server_rss_mb", "MB"},
}

// repeating are the end-to-end metrics of the reference pass, whose input
// does not depend on the workload seed: every run of one build must report
// the same value, and -compare flags a result set where they differ.
var repeating = map[string]bool{"answers_per_task": true, "accuracy": true}

// perLayer are the single-layer metrics of a traced run. Each names the
// end-to-end metric it should move in bench/README.md.
var perLayer = []metricSpec{
	{"core.request_task_calls", "count"},
	{"core.request_task_p50_us", "us"},
	{"core.request_task_p99_us", "us"},
	{"core.request_task_busy_s", "s"},
	{"core.request_task_ok_ratio", "fraction"},
	{"core.submit_answer_p50_us", "us"},
	{"core.submit_answer_p99_us", "us"},
	{"core.submit_answer_busy_s", "s"},
	{"core.results_p50_us", "us"},
	{"core.new_p50_ms", "ms"},
	{"ppr.basis_build_s", "s"},
	{"store.append_calls", "count"},
	{"store.append_p50_us", "us"},
	{"store.append_p99_us", "us"},
	{"store.append_busy_s", "s"},
	{"store.open_p50_ms", "ms"},
	{"platform.assign_self_p50_us", "us"},
	{"platform.assign_self_p99_us", "us"},
	{"platform.submit_self_p50_us", "us"},
	{"platform.submit_self_p99_us", "us"},
	{"platform.status_self_p50_us", "us"},
	{"platform.create_p50_ms", "ms"},
	{"net.assign_p50_us", "us"},
	{"net.submit_p50_us", "us"},
	{"net.status_p50_us", "us"},
	{"server.cpu_s", "s"},
	{"server.cpu_us_per_answer", "us"},
	{"server.http_assign_mean_us", "us"},
	{"server.http_submit_mean_us", "us"},
	{"server.scheme_recompute_mean_us", "us"},
	{"bench.sched_lag_p99_ms", "ms"},
	{"trace.client_mean_us", "us"},
	{"trace.layer_sum_mean_us", "us"},
	{"trace.residual_share", "fraction"},
	{"trace_overhead", "ratio"},
}

// result is the benchmark's verdict for one workload run: the last line
// of its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
