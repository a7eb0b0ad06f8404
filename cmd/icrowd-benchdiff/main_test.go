package main

import (
	"testing"

	"icrowd/internal/benchfmt"
)

func report(recs ...benchfmt.Record) *benchfmt.Report {
	return &benchfmt.Report{Benchmarks: recs}
}

func rec(name string, ns int64) benchfmt.Record {
	return benchfmt.Record{Name: name, NsPerOp: ns}
}

func TestDiffThresholds(t *testing.T) {
	cases := []struct {
		name       string
		old, new   *benchfmt.Report
		threshold  float64
		wantStatus map[string]string
		wantGate   bool // regressed?
	}{
		{
			name:       "improvement beyond threshold",
			old:        report(rec("BenchmarkAssign", 1000)),
			new:        report(rec("BenchmarkAssign", 800)),
			threshold:  0.10,
			wantStatus: map[string]string{"BenchmarkAssign": statusImproved},
			wantGate:   false,
		},
		{
			name:       "within-budget noise does not gate",
			old:        report(rec("BenchmarkAssign", 1000)),
			new:        report(rec("BenchmarkAssign", 1090)),
			threshold:  0.10,
			wantStatus: map[string]string{"BenchmarkAssign": statusOK},
			wantGate:   false,
		},
		{
			name:       "slowdown exactly at threshold does not gate",
			old:        report(rec("BenchmarkAssign", 1000)),
			new:        report(rec("BenchmarkAssign", 1100)),
			threshold:  0.10,
			wantStatus: map[string]string{"BenchmarkAssign": statusOK},
			wantGate:   false,
		},
		{
			name:       "regression beyond threshold gates",
			old:        report(rec("BenchmarkAssign", 1000)),
			new:        report(rec("BenchmarkAssign", 1200)),
			threshold:  0.10,
			wantStatus: map[string]string{"BenchmarkAssign": statusRegression},
			wantGate:   true,
		},
		{
			name:       "tighter threshold flips the same delta to regression",
			old:        report(rec("BenchmarkAssign", 1000)),
			new:        report(rec("BenchmarkAssign", 1090)),
			threshold:  0.05,
			wantStatus: map[string]string{"BenchmarkAssign": statusRegression},
			wantGate:   true,
		},
		{
			name:       "benchmark missing from old side is added, never gates",
			old:        report(rec("BenchmarkAssign", 1000)),
			new:        report(rec("BenchmarkAssign", 1000), rec("BenchmarkEstimate", 500)),
			threshold:  0.10,
			wantStatus: map[string]string{"BenchmarkAssign": statusOK, "BenchmarkEstimate": statusAdded},
			wantGate:   false,
		},
		{
			name:       "benchmark missing from new side is removed, never gates",
			old:        report(rec("BenchmarkAssign", 1000), rec("BenchmarkEstimate", 500)),
			new:        report(rec("BenchmarkAssign", 1000)),
			threshold:  0.10,
			wantStatus: map[string]string{"BenchmarkAssign": statusOK, "BenchmarkEstimate": statusRemoved},
			wantGate:   false,
		},
		{
			name: "one regression among improvements still gates",
			old:  report(rec("BenchmarkAssign", 1000), rec("BenchmarkEstimate", 500)),
			new:  report(rec("BenchmarkAssign", 400), rec("BenchmarkEstimate", 900)),
			wantStatus: map[string]string{
				"BenchmarkAssign":   statusImproved,
				"BenchmarkEstimate": statusRegression,
			},
			threshold: 0.10,
			wantGate:  true,
		},
		{
			name:       "zero old ns/op never divides by zero",
			old:        report(rec("BenchmarkAssign", 0)),
			new:        report(rec("BenchmarkAssign", 1000)),
			threshold:  0.10,
			wantStatus: map[string]string{"BenchmarkAssign": statusOK},
			wantGate:   false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, regressed := diff(tc.old, tc.new, tc.threshold, tc.threshold)
			if regressed != tc.wantGate {
				t.Errorf("regressed = %v, want %v", regressed, tc.wantGate)
			}
			if len(rows) != len(tc.wantStatus) {
				t.Fatalf("got %d rows, want %d: %+v", len(rows), len(tc.wantStatus), rows)
			}
			for _, r := range rows {
				want, ok := tc.wantStatus[r.Name]
				if !ok {
					t.Errorf("unexpected row for %q", r.Name)
					continue
				}
				if r.Status != want {
					t.Errorf("%s: status = %q, want %q (delta %+.3f)", r.Name, r.Status, want, r.Delta)
				}
			}
		})
	}
}

func TestDiffDeltaValue(t *testing.T) {
	rows, _ := diff(report(rec("B", 1000)), report(rec("B", 1250)), 0.10, 0.10)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if got, want := rows[0].Delta, 0.25; got != want {
		t.Errorf("delta = %v, want %v", got, want)
	}
}

// recAlloc builds a record with full ns/allocs/bytes figures.
func recAlloc(name string, ns, allocs, bytes int64) benchfmt.Record {
	return benchfmt.Record{Name: name, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes}
}

func TestDiffAllocThresholds(t *testing.T) {
	cases := []struct {
		name           string
		old, new       *benchfmt.Report
		nsThr, allocTh float64
		wantStatus     string
		wantMetrics    []string
		wantGate       bool
	}{
		{
			name:        "alloc regression gates even with flat ns",
			old:         report(recAlloc("B", 1000, 100, 10000)),
			new:         report(recAlloc("B", 1000, 150, 10000)),
			nsThr:       0.10,
			allocTh:     0.10,
			wantStatus:  statusRegression,
			wantMetrics: []string{"allocs/op"},
			wantGate:    true,
		},
		{
			name:        "bytes regression gates even with flat ns",
			old:         report(recAlloc("B", 1000, 100, 10000)),
			new:         report(recAlloc("B", 1000, 100, 20000)),
			nsThr:       0.10,
			allocTh:     0.10,
			wantStatus:  statusRegression,
			wantMetrics: []string{"bytes/op"},
			wantGate:    true,
		},
		{
			name:        "ns and allocs both regressed names both metrics",
			old:         report(recAlloc("B", 1000, 100, 10000)),
			new:         report(recAlloc("B", 1500, 200, 10000)),
			nsThr:       0.10,
			allocTh:     0.10,
			wantStatus:  statusRegression,
			wantMetrics: []string{"ns/op", "allocs/op"},
			wantGate:    true,
		},
		{
			name:       "alloc improvement alone marks the row improved",
			old:        report(recAlloc("B", 1000, 1000, 10000)),
			new:        report(recAlloc("B", 1000, 100, 10000)),
			nsThr:      0.10,
			allocTh:    0.10,
			wantStatus: statusImproved,
			wantGate:   false,
		},
		{
			name:       "alloc noise within its own threshold stays ok",
			old:        report(recAlloc("B", 1000, 100, 10000)),
			new:        report(recAlloc("B", 1000, 105, 10200)),
			nsThr:      0.10,
			allocTh:    0.10,
			wantStatus: statusOK,
			wantGate:   false,
		},
		{
			name:       "zero old allocs never divides by zero",
			old:        report(recAlloc("B", 1000, 0, 0)),
			new:        report(recAlloc("B", 1000, 500, 50000)),
			nsThr:      0.10,
			allocTh:    0.10,
			wantStatus: statusOK,
			wantGate:   false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, regressed := diff(tc.old, tc.new, tc.nsThr, tc.allocTh)
			if regressed != tc.wantGate {
				t.Errorf("regressed = %v, want %v", regressed, tc.wantGate)
			}
			if len(rows) != 1 {
				t.Fatalf("got %d rows, want 1: %+v", len(rows), rows)
			}
			if rows[0].Status != tc.wantStatus {
				t.Errorf("status = %q, want %q (alloc delta %+.3f, bytes delta %+.3f)",
					rows[0].Status, tc.wantStatus, rows[0].AllocDelta, rows[0].BytesDelta)
			}
			if len(rows[0].RegressedMetrics) != len(tc.wantMetrics) {
				t.Fatalf("regressed metrics = %v, want %v", rows[0].RegressedMetrics, tc.wantMetrics)
			}
			for i, m := range tc.wantMetrics {
				if rows[0].RegressedMetrics[i] != m {
					t.Errorf("regressed metrics = %v, want %v", rows[0].RegressedMetrics, tc.wantMetrics)
				}
			}
		})
	}
}

func TestGateSpeedups(t *testing.T) {
	cases := []struct {
		name     string
		rep      benchfmt.Report
		wantFail int
	}{
		{
			name: "enforced multi-core speedup below target fails",
			rep: benchfmt.Report{
				NumCPU: 8, PrecomputeSpeedup: 1.2, SpeedupTarget: 2.0,
				SpeedupStatus: benchfmt.SpeedupEnforced,
			},
			wantFail: 1,
		},
		{
			name: "enforced speedup at target passes",
			rep: benchfmt.Report{
				NumCPU: 8, PrecomputeSpeedup: 2.5, SpeedupTarget: 2.0,
				SpeedupStatus: benchfmt.SpeedupEnforced,
			},
			wantFail: 0,
		},
		{
			name: "1-core skipped status never fails the speedup gate",
			rep: benchfmt.Report{
				NumCPU: 1, PrecomputeSpeedup: 0.99, SpeedupTarget: 2.0,
				SpeedupStatus: benchfmt.SpeedupStatusFor(1, 8),
			},
			wantFail: 0,
		},
		{
			name: "2-core skipped status never fails the speedup gate",
			rep: benchfmt.Report{
				NumCPU: 2, PrecomputeSpeedup: 1.9, SpeedupTarget: 2.0,
				SpeedupStatus: benchfmt.SpeedupStatusFor(2, 8),
			},
			wantFail: 0,
		},
		{
			name: "delta speedup below target fails regardless of core count",
			rep: benchfmt.Report{
				NumCPU: 1, SpeedupStatus: benchfmt.SpeedupStatusFor(1, 8),
				PrecomputeDeltaSpeedup: 4.0, DeltaSpeedupTarget: 10.0,
			},
			wantFail: 1,
		},
		{
			name: "delta speedup above target passes",
			rep: benchfmt.Report{
				PrecomputeDeltaSpeedup: 40.0, DeltaSpeedupTarget: 10.0,
			},
			wantFail: 0,
		},
		{
			name:     "old report without delta fields never gates on them",
			rep:      benchfmt.Report{NumCPU: 8},
			wantFail: 0,
		},
		{
			name: "both gates can fail together",
			rep: benchfmt.Report{
				NumCPU: 8, PrecomputeSpeedup: 1.0, SpeedupTarget: 2.0,
				SpeedupStatus:          benchfmt.SpeedupEnforced,
				PrecomputeDeltaSpeedup: 2.0, DeltaSpeedupTarget: 10.0,
			},
			wantFail: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failures := gateSpeedups(&tc.rep)
			if len(failures) != tc.wantFail {
				t.Errorf("gateSpeedups = %v (%d failures), want %d", failures, len(failures), tc.wantFail)
			}
		})
	}
}

func TestDescribe(t *testing.T) {
	cases := []struct {
		rep  benchfmt.Report
		want string
	}{
		{benchfmt.Report{}, "unstamped"},
		{benchfmt.Report{GeneratedAt: "2026-01-02T03:04:05Z"}, "2026-01-02T03:04:05Z"},
		{benchfmt.Report{GitCommit: "abcdef0123456789abcdef"}, "@ abcdef012345"},
		{
			benchfmt.Report{GeneratedAt: "2026-01-02T03:04:05Z", GitCommit: "abcdef0123456789"},
			"2026-01-02T03:04:05Z @ abcdef012345",
		},
	}
	for _, tc := range cases {
		if got := describe(&tc.rep); got != tc.want {
			t.Errorf("describe(%+v) = %q, want %q", tc.rep, got, tc.want)
		}
	}
}
