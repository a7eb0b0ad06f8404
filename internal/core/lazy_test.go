package core

import (
	"fmt"
	"testing"

	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// lazySetup builds the dataset, graph and a fully precomputed basis.
func lazySetup(t *testing.T) (*task.Dataset, *simgraph.Graph, *ppr.Basis) {
	t.Helper()
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ds, g, full
}

// scriptedAnswer is a deterministic worker model: mostly truthful, with
// errors at fixed (worker, task) positions so accuracies differ per worker.
func scriptedAnswer(ds *task.Dataset, widx, taskID int) task.Answer {
	truth := ds.Tasks[taskID].Truth
	if (taskID*7+widx*13)%5 == 0 {
		if truth == task.Yes {
			return task.No
		}
		return task.Yes
	}
	return truth
}

// driveJob runs the scripted workers round-robin until the job completes.
func driveJob(t *testing.T, ds *task.Dataset, ic *ICrowd, workers []string) {
	t.Helper()
	for step := 0; step < 20000 && !ic.Done(); step++ {
		w := step % len(workers)
		tid, ok := ic.RequestTask(workers[w])
		if !ok {
			continue
		}
		if err := ic.SubmitAnswer(workers[w], tid, scriptedAnswer(ds, w, tid)); err != nil {
			t.Fatalf("worker %d task %d: %v", w, tid, err)
		}
	}
	if !ic.Done() {
		t.Fatal("job did not complete under the scripted workers")
	}
}

// TestLazyBasisMatchesFullBasis is the lazy-mode parity pin: a run over an
// initially empty basis grown on demand via WithLazyBasis must behave
// identically — same assignments, same consensus results, same estimated
// accuracies — to a run over the fully precomputed basis, because
// SolveMissing produces bit-identical vectors and the framework only ever
// reads vectors of observed tasks.
func TestLazyBasisMatchesFullBasis(t *testing.T) {
	ds, g, full := lazySetup(t)
	qual := []int{0, 3, 6}
	cfg := DefaultConfig()
	workers := make([]string, 6)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%02d", i)
	}

	icFull, err := New(ds, full, cfg, WithQualification(qual))
	if err != nil {
		t.Fatal(err)
	}
	driveJob(t, ds, icFull, workers)

	lazyBasis, err := ppr.PrecomputePartial(g, ppr.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	icLazy, err := New(ds, lazyBasis, cfg, WithQualification(qual), WithLazyBasis(g))
	if err != nil {
		t.Fatal(err)
	}
	// New pre-solves the qualification seeds so warm-up observations can be
	// folded in immediately.
	for _, q := range qual {
		if lazyBasis.Vec(q) == nil {
			t.Fatalf("qualification seed %d not solved at construction", q)
		}
	}
	driveJob(t, ds, icLazy, workers)

	wantRes, gotRes := icFull.Results(), icLazy.Results()
	if len(wantRes) != len(gotRes) {
		t.Fatalf("results size %d vs %d", len(gotRes), len(wantRes))
	}
	for tid, a := range wantRes {
		if gotRes[tid] != a {
			t.Fatalf("task %d: lazy consensus %v, full %v", tid, gotRes[tid], a)
		}
	}
	for w := range workers {
		for tid := 0; tid < ds.Len(); tid++ {
			fa := icFull.Estimator().Accuracy(workers[w], tid)
			la := icLazy.Estimator().Accuracy(workers[w], tid)
			if fa != la {
				t.Fatalf("worker %s task %d: lazy accuracy %v, full %v", workers[w], tid, la, fa)
			}
		}
	}
	// The lazy basis solved only what the run observed — and everything the
	// run observed.
	if len(lazyBasis.Missing()) == lazyBasis.N() {
		t.Fatal("lazy basis solved nothing")
	}
	if !lazyBasis.Converged() {
		t.Fatalf("lazy basis has unconverged vectors: %v", lazyBasis.Unconverged())
	}
}

// TestLazyBasisValidation covers the construction-time checks of lazy mode.
func TestLazyBasisValidation(t *testing.T) {
	ds, g, _ := lazySetup(t)
	empty, err := ppr.PrecomputePartial(g, ppr.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Default InfQF qualification needs the full basis: lazy mode without an
	// explicit qualification set must be rejected, not silently degraded.
	if _, err := New(ds, empty, DefaultConfig(), WithLazyBasis(g)); err == nil {
		t.Fatal("lazy + InfQF should error")
	}
	// A lazy graph of the wrong size is rejected even when the basis fits
	// the dataset.
	small, err := simgraph.BuildRandom(ds.Len()-1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ds, empty, DefaultConfig(), WithQualification([]int{0}), WithLazyBasis(small)); err == nil {
		t.Fatal("undersized lazy graph should error")
	}
}
