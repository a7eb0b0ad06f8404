// Package hotbench defines the shared benchmark bodies for the
// estimation/assignment hot path. They are run two ways: as ordinary
// `go test -bench` benchmarks (hotpath_bench_test.go at the repo root,
// Benchmark{SimilarityGraph,Precompute,SelectQualification,ComputeScheme,
// AssignThroughput})
// and via testing.Benchmark by the icrowd-bench command, which writes the
// machine-readable BENCH_hotpath.json report. Keeping one copy of each
// body guarantees the report measures exactly what the named benchmarks
// measure.
package hotbench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"icrowd/internal/core"
	"icrowd/internal/ppr"
	"icrowd/internal/qualify"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// ParallelWorkers is the fan-out of the parallel benchmark variants. It is
// pinned at 8 — the core count the paper's scalability figures (and this
// repo's speedup target) are quoted at — rather than GOMAXPROCS, so the
// configuration is identical across machines and reports differ only in
// how much hardware was available to back it.
const ParallelWorkers = 8

// Graph builds the ItemCompare similarity graph the PPR benchmarks solve
// over (360 microtasks, Jaccard threshold 0.25).
func Graph() (*task.Dataset, *simgraph.Graph, error) {
	ds := task.GenerateItemCompare(1)
	g, err := jaccardGraph(ds)
	return ds, g, err
}

func jaccardGraph(ds *task.Dataset) (*simgraph.Graph, error) {
	return simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.25, 0)
}

// SimilarityGraph returns the BenchmarkSimilarityGraph body: the first
// half of the offline phase, interning ItemCompare's tokens, scoring all
// 64,620 task pairs with the Jaccard kernel and building the thresholded
// CSR graph that Precompute then solves over.
func SimilarityGraph() func(*testing.B) {
	return func(b *testing.B) {
		ds := task.GenerateItemCompare(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := jaccardGraph(ds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Precompute returns the BenchmarkPrecompute body: the full offline phase
// of Algorithm 1 (one sparse PPR solve per microtask) with the given
// solver fan-out. workers=1 is the sequential baseline the parallel
// variants are compared against.
func Precompute(workers int) func(*testing.B) {
	return func(b *testing.B) {
		_, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		o := ppr.DefaultOptions()
		o.Workers = workers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ppr.Precompute(g, o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// PrecomputeDelta returns the BenchmarkPrecomputeDelta body: the delta
// path of incremental basis maintenance. With a basis already covering all
// but one task, each iteration invalidates and re-solves that single seed
// via Basis.SolveMissing — exactly what lazy-basis mode (core.WithLazyBasis)
// pays when one newly observed task needs its vector, instead of a full
// Precompute. The committed gate requires this to be >= 10x cheaper than
// BenchmarkPrecompute/workers=1 on the same graph.
func PrecomputeDelta() func(*testing.B) {
	return func(b *testing.B) {
		_, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		o := ppr.DefaultOptions()
		missing := g.N() - 1
		seeds := make([]int, missing)
		for i := range seeds {
			seeds[i] = i
		}
		basis, err := ppr.PrecomputePartial(g, o, seeds)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			basis.Invalidate(missing)
			if _, err := basis.SolveMissing(g, []int{missing}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// SelectQualification returns the BenchmarkSelectQualification body:
// Algorithm 4's InfQF selection of q = 10 qualification microtasks over the
// ItemCompare basis, the step icrowd-server takes between building the
// basis and opening its listener.
func SelectQualification() func(*testing.B) {
	return func(b *testing.B) {
		_, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		basis, err := ppr.Precompute(g, ppr.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qualify.Select(qualify.InfQF, basis, 10, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// pool returns n deterministic worker IDs.
func pool(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%03d", i)
	}
	return ids
}

// qualified builds an ICrowd job on ds/basis and walks every worker in
// ids through qualification (answering ground truth), leaving the job at
// the start of its adaptive phase.
func qualified(b *testing.B, ds *task.Dataset, basis *ppr.Basis, cfg core.Config, ids []string, opts ...core.Option) *core.ICrowd {
	b.Helper()
	ic, err := core.New(ds, basis, cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range ids {
		for range ic.QualificationTasks() {
			tid, ok := ic.RequestTask(w)
			if !ok {
				b.Fatal("no qualification task")
			}
			if err := ic.SubmitAnswer(w, tid, ds.Tasks[tid].Truth); err != nil {
				b.Fatal(err)
			}
		}
	}
	return ic
}

// ComputeScheme returns the BenchmarkComputeScheme body: each iteration
// submits one answer (dirtying the submitting worker's top-set entries)
// and requests the next microtask, which forces the incremental scheme
// recomputation — the dominant cost of a mid-job adaptive round.
func ComputeScheme() func(*testing.B) {
	return func(b *testing.B) {
		ds, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		basis, err := ppr.Precompute(g, ppr.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		ids := pool(24)
		ic := qualified(b, ds, basis, cfg, ids)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := ids[i%len(ids)]
			tid, ok := ic.RequestTask(w)
			if !ok {
				// Job finished: start a fresh one off the clock.
				b.StopTimer()
				ic = qualified(b, ds, basis, cfg, ids)
				b.StartTimer()
				continue
			}
			if err := ic.SubmitAnswer(w, tid, ds.Tasks[tid].Truth); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// AssignThroughput returns the BenchmarkAssignThroughput body: nWorkers
// qualified workers each hold an open assignment, and the benchmark's
// goroutines hammer RequestTask, exercising the idempotent-redelivery
// read path — the /assign fast path that the sharded lock scheme serves
// from a read lock without blocking behind scheme recomputation.
//
// opts pass through to core.New; the bench tooling uses
// core.WithMetrics(nil) to measure the metrics-off variant and report the
// observability layer's hot-path overhead.
func AssignThroughput(nWorkers int, opts ...core.Option) func(*testing.B) {
	return func(b *testing.B) {
		ds, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		basis, err := ppr.Precompute(g, ppr.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		ids := pool(nWorkers)
		ic := qualified(b, ds, basis, cfg, ids, opts...)
		for _, w := range ids {
			if _, ok := ic.RequestTask(w); !ok {
				b.Fatalf("worker %s got no assignment", w)
			}
		}
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := ids[int(next.Add(1)-1)%len(ids)]
			for pb.Next() {
				if _, ok := ic.RequestTask(w); !ok {
					b.Errorf("worker %s lost its assignment", w)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "assigns/s")
	}
}
