// Benchmarks for the estimation/assignment hot path, backing the
// BENCH_hotpath.json report (`make bench`, cmd/icrowd-bench). The bodies
// live in internal/hotbench so the report and these benchmarks can never
// drift apart.
package icrowd

import (
	"fmt"
	"testing"

	"icrowd/internal/core"
	"icrowd/internal/hotbench"
)

// BenchmarkSimilarityGraph measures the similarity-graph half of the
// offline phase: every ItemCompare task pair scored by the interned
// Jaccard kernel and thresholded into the CSR graph.
func BenchmarkSimilarityGraph(b *testing.B) {
	hotbench.SimilarityGraph()(b)
}

// BenchmarkPrecompute measures the offline PPR basis precomputation,
// sequential vs the 8-way solver pool (the two produce bit-identical
// bases; see ppr.TestPrecomputeParallelParity).
func BenchmarkPrecompute(b *testing.B) {
	for _, w := range []int{1, hotbench.ParallelWorkers} {
		b.Run(fmt.Sprintf("workers=%d", w), hotbench.Precompute(w))
	}
}

// BenchmarkPrecomputeDelta measures the incremental-maintenance path: a
// basis covering all but one task invalidates and re-solves that single
// seed via Basis.SolveMissing each iteration. The benchdiff gate holds it
// >= 10x cheaper than the sequential full precompute.
func BenchmarkPrecomputeDelta(b *testing.B) {
	hotbench.PrecomputeDelta()(b)
}

// BenchmarkSelectQualification measures InfQF qualification selection
// (Algorithm 4, q = 10) over the ItemCompare basis, the last offline step
// of server start-up.
func BenchmarkSelectQualification(b *testing.B) {
	hotbench.SelectQualification()(b)
}

// BenchmarkComputeScheme measures one adaptive round mid-job: a submitted
// answer dirties the worker's top-set entries and the following request
// forces the incremental scheme recomputation.
func BenchmarkComputeScheme(b *testing.B) {
	hotbench.ComputeScheme()(b)
}

// BenchmarkAssignThroughput measures the /assign fast path: concurrent
// idempotent redelivery reads served under the framework's read lock. The
// metrics=off variant disables the observability layer to expose its
// overhead (budget: <= 5%, tracked in BENCH_hotpath.json).
func BenchmarkAssignThroughput(b *testing.B) {
	b.Run(fmt.Sprintf("workers=%d", hotbench.ParallelWorkers),
		hotbench.AssignThroughput(hotbench.ParallelWorkers))
	b.Run(fmt.Sprintf("workers=%d/metrics=off", hotbench.ParallelWorkers),
		hotbench.AssignThroughput(hotbench.ParallelWorkers, core.WithMetrics(nil)))
}
