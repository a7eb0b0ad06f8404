// Package benchfmt is the machine-readable hot-path benchmark report
// format shared by cmd/icrowd-bench (which writes BENCH_hotpath.json) and
// cmd/icrowd-benchdiff (which compares two reports and gates on
// regressions). Keeping the schema in one place means the regression gate
// can never drift from the writer.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Record is one benchmark's measurement.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full BENCH_hotpath.json document. GeneratedAt and
// GitCommit stamp each run so a sequence of committed reports forms a
// performance trajectory rather than an overwritten snapshot.
type Report struct {
	GeneratedBy string `json:"generated_by"`
	// GeneratedAt is the RFC 3339 UTC wall time of the run.
	GeneratedAt string `json:"generated_at,omitempty"`
	// GitCommit is the commit the run was built from (best effort: empty
	// when neither build info nor a git checkout is available).
	GitCommit       string   `json:"git_commit,omitempty"`
	GoVersion       string   `json:"go_version"`
	GOOS            string   `json:"goos"`
	GOARCH          string   `json:"goarch"`
	NumCPU          int      `json:"num_cpu"`
	GOMAXPROCS      int      `json:"gomaxprocs"`
	ParallelWorkers int      `json:"parallel_workers"`
	Benchmarks      []Record `json:"benchmarks"`
	// PrecomputeSpeedup is the headline figure: sequential over parallel
	// PPR precompute ns/op.
	PrecomputeSpeedup float64 `json:"precompute_speedup"`
	SpeedupTarget     float64 `json:"speedup_target"`
	// SpeedupStatus says whether the speedup target is machine-enforced by
	// the benchdiff gate (see SpeedupStatusFor): SpeedupEnforced only when
	// the runner has a core for every pool worker, since the target assumes
	// an 8-way pool backed by 8 cores.
	SpeedupStatus string `json:"precompute_speedup_status,omitempty"`
	// PrecomputeDeltaSpeedup is the incremental-maintenance figure:
	// sequential full-precompute ns/op over single-seed SolveMissing ns/op
	// (BenchmarkPrecomputeDelta). It is a same-run single-thread ratio, so
	// unlike the pool speedup it is meaningful on any core count and the
	// gate always enforces its target.
	PrecomputeDeltaSpeedup float64 `json:"precompute_delta_speedup,omitempty"`
	DeltaSpeedupTarget     float64 `json:"delta_speedup_target,omitempty"`
	// AssignMetricsOverhead is the fractional ns/op cost of the
	// observability layer on the assign fast path: the median over
	// alternating on/off benchmark pairs of (metrics-on - metrics-off) /
	// metrics-off. The budget is <= 0.05.
	AssignMetricsOverhead float64 `json:"assign_metrics_overhead"`
	MetricsOverheadBudget float64 `json:"metrics_overhead_budget"`
	Note                  string  `json:"note,omitempty"`
}

// SpeedupEnforced marks a report whose precompute_speedup the benchdiff
// gate holds against speedup_target.
const SpeedupEnforced = "enforced"

// SpeedupStatusFor returns the SpeedupStatus of a speedup measured with a
// workers-way pool on numCPU cores: SpeedupEnforced when every pool worker
// has a core, otherwise a "skipped" status naming the shortfall — a pool
// sharing fewer cores measures the hardware, not the code (an 8-way pool
// measures ~1.0x on one core and ~1.9x on two).
func SpeedupStatusFor(numCPU, workers int) string {
	if numCPU >= workers {
		return SpeedupEnforced
	}
	return fmt.Sprintf("skipped (%d of %d cores)", numCPU, workers)
}

// Find returns the record with the given benchmark name, or nil.
func (r *Report) Find(name string) *Record {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// ReadFile loads a report from path.
func ReadFile(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing %s: %w", path, err)
	}
	return &rep, nil
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r *Report) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
