// Command icrowd-bench measures the estimation/assignment hot path and
// writes a machine-readable report, BENCH_hotpath.json by default. It runs
// the same benchmark bodies as Benchmark{SimilarityGraph,Precompute,
// SelectQualification,ComputeScheme,AssignThroughput} (internal/hotbench)
// via testing.Benchmark, then records per-benchmark timings plus the
// headline figure: the speedup of the 8-way parallel PPR precompute over the
// sequential baseline. The parallel and sequential variants produce
// bit-identical bases, so the speedup is free of accuracy trade-offs.
//
// Usage:
//
//	icrowd-bench                 # writes BENCH_hotpath.json
//	icrowd-bench -out -          # report on stdout
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"icrowd/internal/benchfmt"
	"icrowd/internal/core"
	"icrowd/internal/hotbench"
	"icrowd/internal/obsv"
)

func run(name string, fn func(*testing.B)) benchfmt.Record {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		fmt.Fprintf(os.Stderr, "icrowd-bench: %s failed to run\n", name)
		os.Exit(1)
	}
	rec := benchfmt.Record{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if len(r.Extra) > 0 {
		rec.Metrics = r.Extra
	}
	fmt.Fprintf(os.Stderr, "%-40s %10d iter %12d ns/op\n", name, r.N, r.NsPerOp())
	return rec
}

// runPaired measures two near-identical benchmarks by alternating passes
// (a, b, a, b, ...) and reporting the median of the per-pair fractional
// deltas (aNs-bNs)/bNs. The assign fast path is ~130ns/op, where machine
// drift between passes exceeds the metrics-overhead signal being
// measured; adjacent pairing cancels the drift and the median discards a
// single disturbed pair. The returned records are each side's fastest
// pass.
func runPaired(aName string, aFn func(*testing.B), bName string, bFn func(*testing.B), pairs int) (a, b benchfmt.Record, medianDelta float64) {
	deltas := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		ra := run(aName, aFn)
		rb := run(bName, bFn)
		deltas = append(deltas, float64(ra.NsPerOp-rb.NsPerOp)/float64(rb.NsPerOp))
		if i == 0 || ra.NsPerOp < a.NsPerOp {
			a = ra
		}
		if i == 0 || rb.NsPerOp < b.NsPerOp {
			b = rb
		}
	}
	sort.Float64s(deltas)
	return a, b, deltas[len(deltas)/2]
}

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "report file path (- for stdout)")
	mAddr := flag.String("metrics-addr", "", "serve process metrics (Prometheus text) on this listener while benchmarking")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger, err := obsv.NewLoggerFromFlags(*logFormat, *logLevel, obsv.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, "icrowd-bench:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	if *mAddr != "" {
		stopRuntime := obsv.StartRuntime(obsv.Default(), 0)
		defer stopRuntime()
		ms, err := obsv.Serve(*mAddr, obsv.ServeOptions{Registry: obsv.Default()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "icrowd-bench:", err)
			os.Exit(1)
		}
		defer ms.Close()
		logger.Info("metrics listener started", slog.String("addr", *mAddr))
	}

	pw := hotbench.ParallelWorkers
	graph := run("BenchmarkSimilarityGraph", hotbench.SimilarityGraph())
	seq := run("BenchmarkPrecompute/workers=1", hotbench.Precompute(1))
	par := run(fmt.Sprintf("BenchmarkPrecompute/workers=%d", pw), hotbench.Precompute(pw))
	delta := run("BenchmarkPrecomputeDelta", hotbench.PrecomputeDelta())
	assignOn, assignOff, overhead := runPaired(
		fmt.Sprintf("BenchmarkAssignThroughput/workers=%d", pw), hotbench.AssignThroughput(pw),
		fmt.Sprintf("BenchmarkAssignThroughput/workers=%d/metrics=off", pw),
		hotbench.AssignThroughput(pw, core.WithMetrics(nil)), 3)
	rep := benchfmt.Report{
		GeneratedBy:     "icrowd-bench",
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		GitCommit:       benchfmt.GitCommit(),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ParallelWorkers: pw,
		Benchmarks: []benchfmt.Record{
			graph,
			seq,
			par,
			delta,
			run("BenchmarkSelectQualification", hotbench.SelectQualification()),
			run("BenchmarkComputeScheme", hotbench.ComputeScheme()),
			assignOn,
			assignOff,
		},
		PrecomputeSpeedup:      float64(seq.NsPerOp) / float64(par.NsPerOp),
		SpeedupTarget:          2.0,
		SpeedupStatus:          benchfmt.SpeedupStatusFor(runtime.NumCPU(), pw),
		PrecomputeDeltaSpeedup: float64(seq.NsPerOp) / float64(delta.NsPerOp),
		DeltaSpeedupTarget:     10.0,
		AssignMetricsOverhead:  overhead,
		MetricsOverheadBudget:  0.05,
	}
	if rep.NumCPU < pw {
		rep.Note = fmt.Sprintf("measured on %d core(s); the >=%.0fx precompute speedup target assumes >=%d cores backing the %d-way solver pool",
			rep.NumCPU, rep.SpeedupTarget, pw, pw)
	}

	buf, err := rep.Marshal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "icrowd-bench:", err)
		os.Exit(1)
	}
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "icrowd-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "icrowd-bench: wrote %s (precompute speedup %.2fx on %d CPU)\n",
		*out, rep.PrecomputeSpeedup, rep.NumCPU)
}
