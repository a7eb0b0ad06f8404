// Benchmarks regenerating each table and figure of the paper's evaluation,
// plus micro-benchmarks of the hot paths (PPR solve, online estimation,
// greedy assignment, EM aggregation). Experiment benches run scaled-down
// configurations so `go test -bench=.` completes in minutes; the
// icrowd-experiments command runs the full-size versions.
package icrowd

import (
	"fmt"
	"testing"

	"icrowd/internal/aggregate"
	"icrowd/internal/assign"
	"icrowd/internal/core"
	"icrowd/internal/estimate"
	"icrowd/internal/experiments"
	"icrowd/internal/lda"
	"icrowd/internal/ppr"
	"icrowd/internal/qualify"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
	"icrowd/internal/textsim"
)

func benchOpt() experiments.Options {
	return experiments.Options{Seed: 1, Repeats: 1}
}

// BenchmarkTable4Datasets regenerates the Table-4 dataset statistics.
func BenchmarkTable4Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Table4(int64(i)); len(tb.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig6Diversity regenerates the Figure-6 accuracy-diversity study
// (answer collection with redundant random assignment).
func BenchmarkFig6Diversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.DatasetYahooQA, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Acc
	}
}

// BenchmarkFig7Qualification regenerates the Figure-7 qualification
// comparison (RandomQF vs InfQF) on YahooQA.
func BenchmarkFig7Qualification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpt()
		opt.Seed = int64(i + 1)
		if _, err := experiments.Fig7(experiments.DatasetYahooQA, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Adaptivity regenerates the Figure-8 strategy ablation
// (QF-Only / BestEffort / Adapt) on YahooQA.
func BenchmarkFig8Adaptivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpt()
		opt.Seed = int64(i + 1)
		if _, err := experiments.Fig8(experiments.DatasetYahooQA, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Comparison regenerates the Figure-9 headline comparison
// (RandomMV / RandomEM / AvgAccPV / iCrowd) on YahooQA.
func BenchmarkFig9Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpt()
		opt.Seed = int64(i + 1)
		if _, err := experiments.Fig9(experiments.DatasetYahooQA, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10AssignmentRound measures one full Algorithm-2 assignment
// round at growing scales with bounded neighbor counts — the Figure-10
// scalability series.
func BenchmarkFig10AssignmentRound(b *testing.B) {
	for _, n := range []int{20_000, 50_000, 100_000} {
		for _, m := range []int{20, 40} {
			b.Run(fmt.Sprintf("tasks=%d/neighbors=%d", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := experiments.Fig10([]int{n}, []int{m}, 50, 1)
					if err != nil {
						b.Fatal(err)
					}
					_ = res.Elapsed
				}
			})
		}
	}
}

// BenchmarkFig12Measures regenerates a scaled-down Figure-12 sweep
// (similarity measure x threshold).
func BenchmarkFig12Measures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12([]float64{0.25}, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13Alpha regenerates a scaled-down Figure-13 alpha sweep.
func BenchmarkFig13Alpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13([]float64{0.1, 1, 10}, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14AssignmentSize regenerates a scaled-down Figure-14 k sweep.
func BenchmarkFig14AssignmentSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14([]int{1, 3}, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Distribution regenerates the Figure-15 top-worker
// assignment distribution.
func BenchmarkFig15Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5GreedyError regenerates the Table-5 greedy-vs-optimal
// approximation-error measurement.
func BenchmarkTable5GreedyError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5([]int{3, 5, 7}, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func itemCompareBasis(b *testing.B) (*task.Dataset, *simgraph.Graph, *ppr.Basis) {
	b.Helper()
	ds := task.GenerateItemCompare(1)
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.25, 0)
	if err != nil {
		b.Fatal(err)
	}
	basis, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return ds, g, basis
}

// BenchmarkGraphBuild measures similarity-graph construction on the full
// ItemCompare dataset (O(n^2) Jaccard).
func BenchmarkGraphBuild(b *testing.B) {
	ds := task.GenerateItemCompare(1)
	metric := simgraph.JaccardMetric(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simgraph.Build(ds.Len(), metric, 0.25, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPRSparseSolve measures one basis-vector computation.
func BenchmarkPPRSparseSolve(b *testing.B) {
	_, g, _ := itemCompareBasis(b)
	o := ppr.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ppr.SparseSolve(g, i%g.N(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPRPrecompute measures the full offline phase of Algorithm 1.
func BenchmarkPPRPrecompute(b *testing.B) {
	_, g, _ := itemCompareBasis(b)
	o := ppr.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppr.Precompute(g, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateOnline measures the O(|completed| * nnz) online
// estimation step (observe + accuracy lookups).
func BenchmarkEstimateOnline(b *testing.B) {
	ds, _, basis := itemCompareBasis(b)
	est := estimate.New(basis, estimate.DefaultLambda)
	est.EnsureWorker("w", 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.Observe("w", i%ds.Len(), float64(i%2)); err != nil {
			b.Fatal(err)
		}
		_ = est.Accuracy("w", (i*7)%ds.Len())
	}
}

// BenchmarkTopWorkersIndexed measures indexed top-worker-set computation
// over 100 workers.
func BenchmarkTopWorkersIndexed(b *testing.B) {
	ds, _, basis := itemCompareBasis(b)
	est := estimate.New(basis, estimate.DefaultLambda)
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%03d", i)
		est.EnsureWorker(ids[i], 0.4+float64(i%60)/100)
	}
	ix := assign.NewIndex(est, ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ix.TopWorkers(nil, i%ds.Len(), 3, nil); len(got) != 3 {
			b.Fatal("bad top set")
		}
	}
}

// BenchmarkGreedyAssign measures Algorithm 3 over ItemCompare-sized
// candidate lists.
func BenchmarkGreedyAssign(b *testing.B) {
	ds, _, basis := itemCompareBasis(b)
	est := estimate.New(basis, estimate.DefaultLambda)
	ids := make([]string, 50)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%03d", i)
		est.EnsureWorker(ids[i], 0.4+float64(i%60)/100)
	}
	cands := make([]assign.CandidateAssignment, 0, ds.Len())
	for tid := 0; tid < ds.Len(); tid++ {
		cands = append(cands, assign.CandidateAssignment{
			Task:    tid,
			Workers: assign.TopWorkers(est, tid, 3, ids),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := assign.Greedy(cands); len(got) == 0 {
			b.Fatal("empty scheme")
		}
	}
}

// BenchmarkQualifySelect measures Algorithm-4 qualification selection.
func BenchmarkQualifySelect(b *testing.B) {
	_, _, basis := itemCompareBasis(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qualify.SelectGreedy(basis, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDawidSkene measures the RandomEM aggregation over a
// 360-task/50-worker vote table.
func BenchmarkDawidSkene(b *testing.B) {
	ds := task.GenerateItemCompare(1)
	votes := map[int][]aggregate.Vote{}
	for tid := 0; tid < ds.Len(); tid++ {
		for j := 0; j < 3; j++ {
			w := fmt.Sprintf("w%02d", (tid*3+j)%50)
			ans := ds.Tasks[tid].Truth
			if (tid+j)%4 == 0 {
				ans = ans.Flip()
			}
			votes[tid] = append(votes[tid], aggregate.Vote{Worker: w, Answer: ans})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.DawidSkene(votes, 50, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJaccard measures the token-set similarity primitive: one pair
// scored by the interned merge kernel.
func BenchmarkJaccard(b *testing.B) {
	ds := task.ProductMatching()
	sets := textsim.NewTokenSets([][]string{ds.Tasks[0].Tokens, ds.Tasks[5].Tokens})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sets.Jaccard(0, 1)
	}
}

// BenchmarkLDATrain measures LDA topic fitting on the ItemCompare corpus
// (the offline cost behind the Cos(topic) measure).
func BenchmarkLDATrain(b *testing.B) {
	ds := task.GenerateItemCompare(1)
	corpus := make([][]string, ds.Len())
	for i, t := range ds.Tasks {
		corpus[i] = t.Tokens
	}
	cfg := lda.DefaultConfig(4, 1)
	cfg.Iterations = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lda.Train(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveRound measures one request/submit cycle of the full
// framework mid-run.
func BenchmarkAdaptiveRound(b *testing.B) {
	ds, _, basis := itemCompareBasis(b)
	workers := []string{"a", "bb", "c"}
	newQualified := func() *core.ICrowd {
		cfg := core.DefaultConfig()
		ic, err := core.New(ds, basis, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workers {
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
	ic := newQualified()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := workers[i%len(workers)]
		tid, ok := ic.RequestTask(w)
		if !ok {
			// Job finished: start a fresh one (setup cost is part of the
			// amortized per-round figure).
			ic = newQualified()
			continue
		}
		if err := ic.SubmitAnswer(w, tid, ds.Tasks[tid].Truth); err != nil {
			b.Fatal(err)
		}
	}
}
