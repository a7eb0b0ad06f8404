// Ablation benchmarks for the design choices DESIGN.md calls out: the
// one-sort greedy vs the paper's literal O(|T|^2) loop, the sparse PPR
// push vs dense power iteration, and the indexed top-worker computation vs
// the O(|W|) scan.
package icrowd

import (
	"fmt"
	"testing"

	"icrowd/internal/assign"
	"icrowd/internal/estimate"
	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// ablationFixture bundles the shared setup.
type ablationFixture struct {
	ds    *task.Dataset
	g     *simgraph.Graph
	basis *ppr.Basis
	est   *estimate.Estimator
	ids   []string
	cands []assign.CandidateAssignment
}

func newAblationFixture(b *testing.B, workers int) *ablationFixture {
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
	est := estimate.New(basis, estimate.DefaultLambda)
	ids := make([]string, workers)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%03d", i)
		est.EnsureWorker(ids[i], 0.4+float64(i%60)/100)
		// A little evidence so support lists are non-trivial.
		if err := est.Observe(ids[i], (i*7)%ds.Len(), float64(i%2)); err != nil {
			b.Fatal(err)
		}
	}
	cands := make([]assign.CandidateAssignment, 0, ds.Len())
	for tid := 0; tid < ds.Len(); tid++ {
		cands = append(cands, assign.CandidateAssignment{
			Task:    tid,
			Workers: assign.TopWorkers(est, tid, 3, ids),
		})
	}
	return &ablationFixture{ds: ds, g: g, basis: basis, est: est, ids: ids, cands: cands}
}

// BenchmarkAblationGreedySorted measures the production greedy: one sort of
// the candidates by average accuracy, then a single disjointness pass.
func BenchmarkAblationGreedySorted(b *testing.B) {
	fx := newAblationFixture(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := assign.Greedy(fx.cands); len(got) == 0 {
			b.Fatal("empty scheme")
		}
	}
}

// BenchmarkAblationGreedyReference measures the paper's literal O(|T|^2)
// Algorithm 3 on the same candidates.
func BenchmarkAblationGreedyReference(b *testing.B) {
	fx := newAblationFixture(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := assign.GreedyReference(fx.cands); len(got) == 0 {
			b.Fatal("empty scheme")
		}
	}
}

// BenchmarkAblationPPRSparsePush measures the localized sparse solver used
// in production for one basis vector.
func BenchmarkAblationPPRSparsePush(b *testing.B) {
	fx := newAblationFixture(b, 10)
	o := ppr.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ppr.SparseSolve(fx.g, i%fx.g.N(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPPRDenseIteration measures the dense Eq.-(4) power
// iteration the sparse push replaces.
func BenchmarkAblationPPRDenseIteration(b *testing.B) {
	fx := newAblationFixture(b, 10)
	o := ppr.DefaultOptions()
	q := make([]float64, fx.g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[i%len(q)] = 1
		if _, _, err := ppr.DenseSolve(fx.g, q, o); err != nil {
			b.Fatal(err)
		}
		q[i%len(q)] = 0
	}
}

// BenchmarkAblationTopWorkersIndex measures the support+base index used by
// the framework.
func BenchmarkAblationTopWorkersIndex(b *testing.B) {
	for _, workers := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fx := newAblationFixture(b, workers)
			ix := assign.NewIndex(fx.est, fx.ids)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := ix.TopWorkers(nil, i%fx.ds.Len(), 3, nil); len(got) != 3 {
					b.Fatal("bad top set")
				}
			}
		})
	}
}

// BenchmarkAblationTopWorkersScan measures the O(|W|) reference scan the
// index replaces.
func BenchmarkAblationTopWorkersScan(b *testing.B) {
	for _, workers := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fx := newAblationFixture(b, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := assign.TopWorkers(fx.est, i%fx.ds.Len(), 3, fx.ids); len(got) != 3 {
					b.Fatal("bad top set")
				}
			}
		})
	}
}

// BenchmarkAblationCombineLinearity measures the Lemma-3 linear combination
// against re-solving Eq. (4) from scratch for the same observed vector —
// the paper's core efficiency claim for online estimation.
func BenchmarkAblationCombineLinearity(b *testing.B) {
	fx := newAblationFixture(b, 10)
	q := map[int]float64{0: 1, 50: 0.4, 100: 0.9, 200: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := fx.basis.Combine(q); len(got) == 0 {
			b.Fatal("empty combine")
		}
	}
}

// BenchmarkAblationResolveFromScratch is the baseline for
// BenchmarkAblationCombineLinearity.
func BenchmarkAblationResolveFromScratch(b *testing.B) {
	fx := newAblationFixture(b, 10)
	o := ppr.DefaultOptions()
	q := make([]float64, fx.g.N())
	q[0], q[50], q[100], q[200] = 1, 0.4, 0.9, 0.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ppr.DenseSolve(fx.g, q, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyByAverage measures Algorithm 3's average-accuracy
// selection score (the paper's formulation).
func BenchmarkAblationGreedyByAverage(b *testing.B) {
	fx := newAblationFixture(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := assign.Greedy(fx.cands); len(got) == 0 {
			b.Fatal("empty scheme")
		}
	}
}

// BenchmarkAblationGreedyByProbability measures the Eq.-(1)-scored variant,
// which pays an O(k^2) Poisson-binomial evaluation per candidate.
func BenchmarkAblationGreedyByProbability(b *testing.B) {
	fx := newAblationFixture(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := assign.GreedyByProbability(fx.cands); len(got) == 0 {
			b.Fatal("empty scheme")
		}
	}
}
