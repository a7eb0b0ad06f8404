// Command icrowd-benchdiff is the benchmark-regression gate: it compares
// two BENCH_hotpath.json reports (old first, new second), prints a
// per-benchmark delta table over ns/op, allocs/op and bytes/op, and exits
// non-zero when any benchmark regressed beyond its threshold or a headline
// figure (precompute speedup, delta-solve speedup) fell below its target.
// Benchmarks present on only one side are reported as added/removed but
// never fail the gate — the suite legitimately grows across PRs.
//
// The precompute speedup target is machine-enforced only when the new
// report was measured with a core for every solver-pool worker: an 8-way
// pool on fewer cores measures the hardware (~1.0x on one core, ~1.9x on
// two), so such reports carry a precompute_speedup_status such as
// "skipped (2 of 8 cores)" and the gate says so instead of failing or
// silently passing on a meaningless number. The delta-solve speedup is a
// single-thread ratio and is enforced on any core count.
//
// Usage:
//
//	icrowd-benchdiff BENCH_hotpath.json /tmp/bench_new.json
//	icrowd-benchdiff -threshold 0.05 -alloc-threshold 0.10 old.json new.json
//	icrowd-benchdiff -report-only old.json new.json   # CI on noisy runners
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"icrowd/internal/benchfmt"
)

// Row statuses, one per benchmark name appearing on either side.
const (
	statusOK         = "ok"         // every delta within threshold
	statusImproved   = "improved"   // faster/leaner beyond threshold, no regressions
	statusRegression = "regression" // some metric regressed beyond threshold
	statusAdded      = "added"      // only in the new report
	statusRemoved    = "removed"    // only in the old report
)

// row is one line of the delta table.
type row struct {
	Name             string
	Old, New         benchfmt.Record
	Delta            float64 // ns/op (new-old)/old; meaningless for added/removed
	AllocDelta       float64 // allocs/op fractional delta
	BytesDelta       float64 // bytes/op fractional delta
	Status           string
	RegressedMetrics []string // which of ns/allocs/bytes regressed
}

// frac returns (new-old)/old, or 0 when old is 0 (a metric that was never
// recorded must not divide by zero or gate).
func frac(oldV, newV int64) float64 {
	if oldV <= 0 {
		return 0
	}
	return float64(newV-oldV) / float64(oldV)
}

// diff compares the two reports benchmark-by-benchmark in the new report's
// order (removed benchmarks follow, in the old report's order) and reports
// whether any common benchmark regressed beyond its threshold: nsThreshold
// for ns/op, allocThreshold for allocs/op and bytes/op (allocation
// regressions on the solver hot path gate exactly like time regressions).
func diff(oldRep, newRep *benchfmt.Report, nsThreshold, allocThreshold float64) (rows []row, regressed bool) {
	for _, nb := range newRep.Benchmarks {
		ob := oldRep.Find(nb.Name)
		if ob == nil {
			rows = append(rows, row{Name: nb.Name, New: nb, Status: statusAdded})
			continue
		}
		r := row{
			Name:       nb.Name,
			Old:        *ob,
			New:        nb,
			Delta:      frac(ob.NsPerOp, nb.NsPerOp),
			AllocDelta: frac(ob.AllocsPerOp, nb.AllocsPerOp),
			BytesDelta: frac(ob.BytesPerOp, nb.BytesPerOp),
		}
		if r.Delta > nsThreshold {
			r.RegressedMetrics = append(r.RegressedMetrics, "ns/op")
		}
		if r.AllocDelta > allocThreshold {
			r.RegressedMetrics = append(r.RegressedMetrics, "allocs/op")
		}
		if r.BytesDelta > allocThreshold {
			r.RegressedMetrics = append(r.RegressedMetrics, "bytes/op")
		}
		switch {
		case len(r.RegressedMetrics) > 0:
			r.Status = statusRegression
			regressed = true
		case r.Delta < -nsThreshold || r.AllocDelta < -allocThreshold || r.BytesDelta < -allocThreshold:
			r.Status = statusImproved
		default:
			r.Status = statusOK
		}
		rows = append(rows, r)
	}
	for _, ob := range oldRep.Benchmarks {
		if newRep.Find(ob.Name) == nil {
			rows = append(rows, row{Name: ob.Name, Old: ob, Status: statusRemoved})
		}
	}
	return rows, regressed
}

// gateSpeedups checks the report-level headline figures of the new report
// and returns human-readable failures. The pool speedup is checked only
// when the report says it is enforceable (a core per pool worker); the
// delta speedup always.
func gateSpeedups(rep *benchfmt.Report) (failures []string) {
	if rep.SpeedupTarget > 0 && rep.SpeedupStatus == benchfmt.SpeedupEnforced &&
		rep.PrecomputeSpeedup < rep.SpeedupTarget {
		failures = append(failures, fmt.Sprintf(
			"precompute_speedup %.2fx below the %.1fx target on %d cores",
			rep.PrecomputeSpeedup, rep.SpeedupTarget, rep.NumCPU))
	}
	if rep.DeltaSpeedupTarget > 0 && rep.PrecomputeDeltaSpeedup < rep.DeltaSpeedupTarget {
		failures = append(failures, fmt.Sprintf(
			"precompute_delta_speedup %.1fx below the %.0fx target",
			rep.PrecomputeDeltaSpeedup, rep.DeltaSpeedupTarget))
	}
	return failures
}

// cell renders one metric column as "old→new (+d%)".
func cell(oldV, newV int64, delta float64, status string) string {
	switch status {
	case statusAdded:
		return fmt.Sprintf("-→%d", newV)
	case statusRemoved:
		return fmt.Sprintf("%d→-", oldV)
	}
	return fmt.Sprintf("%d→%d (%+.1f%%)", oldV, newV, delta*100)
}

// printTable renders the delta table to w.
func printTable(w *os.File, rows []row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tns/op\tallocs/op\tbytes/op\tstatus")
	for _, r := range rows {
		status := r.Status
		if len(r.RegressedMetrics) > 0 {
			status += " [" + strings.Join(r.RegressedMetrics, ",") + "]"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.Name,
			cell(r.Old.NsPerOp, r.New.NsPerOp, r.Delta, r.Status),
			cell(r.Old.AllocsPerOp, r.New.AllocsPerOp, r.AllocDelta, r.Status),
			cell(r.Old.BytesPerOp, r.New.BytesPerOp, r.BytesDelta, r.Status),
			status)
	}
	tw.Flush()
}

func main() {
	threshold := flag.Float64("threshold", 0.10,
		"maximum tolerated fractional ns/op increase before a benchmark counts as regressed")
	allocThreshold := flag.Float64("alloc-threshold", 0.10,
		"maximum tolerated fractional allocs/op or bytes/op increase before a benchmark counts as regressed")
	reportOnly := flag.Bool("report-only", false,
		"print the delta table but always exit 0 (CI on noisy single-core runners)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: icrowd-benchdiff [flags] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldRep, err := benchfmt.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	newRep, err := benchfmt.ReadFile(flag.Arg(1))
	if err != nil {
		fail(err)
	}

	fmt.Printf("old: %s  (%s, %d CPU)\n", flag.Arg(0), describe(oldRep), oldRep.NumCPU)
	fmt.Printf("new: %s  (%s, %d CPU)\n", flag.Arg(1), describe(newRep), newRep.NumCPU)
	rows, regressed := diff(oldRep, newRep, *threshold, *allocThreshold)
	printTable(os.Stdout, rows)
	if newRep.MetricsOverheadBudget > 0 {
		verdict := "within"
		if newRep.AssignMetricsOverhead > newRep.MetricsOverheadBudget {
			verdict = "OVER"
		}
		fmt.Printf("assign_metrics_overhead: %+.1f%% (%s the %.0f%% budget)\n",
			newRep.AssignMetricsOverhead*100, verdict, newRep.MetricsOverheadBudget*100)
	}
	if newRep.SpeedupTarget > 0 {
		if newRep.SpeedupStatus == benchfmt.SpeedupEnforced {
			fmt.Printf("precompute_speedup: %.2fx (target %.1fx, enforced on %d cores)\n",
				newRep.PrecomputeSpeedup, newRep.SpeedupTarget, newRep.NumCPU)
		} else {
			fmt.Printf("precompute_speedup: %s\n", newRep.SpeedupStatus)
		}
	}
	if newRep.DeltaSpeedupTarget > 0 {
		fmt.Printf("precompute_delta_speedup: %.1fx (target %.0fx)\n",
			newRep.PrecomputeDeltaSpeedup, newRep.DeltaSpeedupTarget)
	}
	failures := gateSpeedups(newRep)
	if regressed {
		failures = append(failures, fmt.Sprintf("per-benchmark regression beyond %.0f%% ns / %.0f%% allocs",
			*threshold*100, *allocThreshold*100))
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "icrowd-benchdiff:", f)
		}
		if !*reportOnly {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "icrowd-benchdiff: -report-only set, exiting 0")
	}
}

// describe renders a report's provenance stamp for the header lines.
func describe(r *benchfmt.Report) string {
	commit := r.GitCommit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	switch {
	case r.GeneratedAt != "" && commit != "":
		return r.GeneratedAt + " @ " + commit
	case r.GeneratedAt != "":
		return r.GeneratedAt
	case commit != "":
		return "@ " + commit
	}
	return "unstamped"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "icrowd-benchdiff:", err)
	os.Exit(1)
}
