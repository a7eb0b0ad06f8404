package benchfmt

import (
	"encoding/json"
	"math"
	"os/exec"
	"runtime/debug"
	"sort"
	"strings"
)

// LoadReport is the BENCH_load.json document cmd/icrowd-loadgen writes: one
// open-loop load run against a live server, summarized so future PRs can
// gate serving-path regressions the way BENCH_hotpath.json gates the
// library hot path. Latencies are reported only over admitted (2xx)
// requests — shed requests return in microseconds by design and would
// make the percentiles look better the harder the server is overloaded.
type LoadReport struct {
	GeneratedBy string `json:"generated_by"`
	// GeneratedAt is the RFC 3339 UTC wall time of the run.
	GeneratedAt string `json:"generated_at,omitempty"`
	// GitCommit is the commit the run was built from (best effort).
	GitCommit string `json:"git_commit,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	// Target is the server URL the run drove.
	Target string `json:"target"`
	// OfferedRate is the open-loop arrival rate in requests/second the
	// generator offered (arrivals do not slow down when the server does —
	// that is what makes the measurement honest under overload).
	OfferedRate float64 `json:"offered_rate_per_sec"`
	// DurationSec is how long arrivals were generated.
	DurationSec float64 `json:"duration_sec"`
	// Workers is the size of the simulated worker population.
	Workers int `json:"workers"`
	// ZipfS is the skew parameter of the worker-pick distribution
	// (Figure-15 workload: a handful of hot workers dominate).
	ZipfS float64 `json:"zipf_s"`

	// Requests counts every HTTP operation issued (assigns + submits).
	Requests int64 `json:"requests"`
	// Admitted counts 2xx responses.
	Admitted int64 `json:"admitted"`
	// Shed counts 429 responses (admission queue, deadline, or
	// per-worker throttle).
	Shed int64 `json:"shed"`
	// Status4xx counts non-429 4xx responses (client errors).
	Status4xx int64 `json:"status_4xx"`
	// Status5xx counts 5xx responses — the acceptance bar is zero.
	Status5xx int64 `json:"status_5xx"`
	// TransportErrors counts requests that never produced a status
	// (connection refused, client-side deadline, ...).
	TransportErrors int64 `json:"transport_errors"`

	// GoodputPerSec is admitted responses per second of run time.
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// ShedRate is Shed / Requests.
	ShedRate float64 `json:"shed_rate"`
	// LatencyP50/95/99Ms are percentiles over admitted-request latencies.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	// HotWorkerShare is the hottest worker's fraction of admitted
	// requests — with the per-worker limiter on, it stays near its
	// configured rate share instead of the raw Zipf mass.
	HotWorkerShare float64 `json:"hot_worker_share"`
	// SLO summarizes the server's /v1/slo burn-rate view as sampled during
	// the run. Absent when the target has no SLO engine configured.
	SLO  *SLOSummary `json:"slo,omitempty"`
	Note string      `json:"note,omitempty"`
}

// SLOSummary condenses the burn-rate samples the generator polled from the
// target's GET /v1/slo (roughly once per second) while arrivals ran. Burn
// rate is budget spend relative to the objective: 1.0 consumes exactly the
// error budget over the window, above 1.0 the objective is being missed.
type SLOSummary struct {
	// Polls counts successful /v1/slo fetches during the run.
	Polls int `json:"polls"`
	// Objectives maps each objective key ("assign", "project:default", ...)
	// to its sampled 5m burn-rate quantiles.
	Objectives map[string]SLOObjectiveSummary `json:"objectives"`
}

// SLOObjectiveSummary is one objective's sampled 5m burn-rate behaviour
// over the run.
type SLOObjectiveSummary struct {
	// Requests is the objective's 5m request count at the last poll.
	Requests int64 `json:"requests"`
	// LatencyBurnP50/Max summarize the sampled 5m latency burn rates.
	LatencyBurnP50 float64 `json:"latency_burn_5m_p50"`
	LatencyBurnMax float64 `json:"latency_burn_5m_max"`
	// ErrorBurnP50/Max summarize the sampled 5m error burn rates.
	ErrorBurnP50 float64 `json:"error_burn_5m_p50"`
	ErrorBurnMax float64 `json:"error_burn_5m_max"`
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r *LoadReport) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of samples using the
// nearest-rank method on a sorted copy. NaN on an empty slice.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// GitCommit identifies the commit the running binary was built from: the
// VCS revision stamped into the build when available, else a best-effort
// `git rev-parse HEAD` (go run does not stamp VCS info), else "".
func GitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
