package estimate

import (
	"math"
	"math/rand"
	"testing"

	"icrowd/internal/aggregate"
	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/stats"
	"icrowd/internal/task"
)

func table1Estimator(t testing.TB) (*task.Dataset, *Estimator) {
	t.Helper()
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	basis, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ds, New(basis, 0)
}

func TestEnsureWorkerAndBase(t *testing.T) {
	_, e := table1Estimator(t)
	if !e.EnsureWorker("w1", 0.8) {
		t.Fatal("first EnsureWorker should report new")
	}
	if e.EnsureWorker("w1", 0.2) {
		t.Fatal("second EnsureWorker should not report new")
	}
	if got := e.Base("w1"); got != 0.8 {
		t.Fatalf("Base = %v, want 0.8 (EnsureWorker must not overwrite)", got)
	}
	e.SetBase("w1", 0.6)
	if got := e.Base("w1"); got != 0.6 {
		t.Fatalf("Base = %v after SetBase", got)
	}
	if got := e.Base("ghost"); got != DefaultBase {
		t.Fatalf("unknown worker base = %v, want %v", got, DefaultBase)
	}
	if !e.Known("w1") || e.Known("ghost") {
		t.Fatal("Known mismatch")
	}
	ws := e.Workers()
	if len(ws) != 1 || ws[0] != "w1" {
		t.Fatalf("Workers = %v", ws)
	}
}

func TestAccuracyWithNoEvidenceIsBase(t *testing.T) {
	ds, e := table1Estimator(t)
	e.EnsureWorker("w", 0.7)
	for i := 0; i < ds.Len(); i++ {
		if got := e.Accuracy("w", i); math.Abs(got-0.7) > 1e-12 {
			t.Fatalf("task %d: accuracy %v, want base 0.7", i, got)
		}
	}
	if got := e.Accuracy("ghost", 0); got != DefaultBase {
		t.Fatalf("unknown worker accuracy = %v", got)
	}
}

func TestQualificationShiftsClusterEstimates(t *testing.T) {
	// Paper running example: w answers t1 (iPhone) correctly, t2 (iPod) and
	// t3 (iPad) incorrectly. Estimates must rise on iPhone tasks and fall
	// on iPod/iPad tasks relative to base.
	_, e := table1Estimator(t)
	const base = 0.6
	e.EnsureWorker("w", base)
	if err := e.ObserveQualification("w", 0, true); err != nil {
		t.Fatal(err)
	}
	if err := e.ObserveQualification("w", 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.ObserveQualification("w", 2, false); err != nil {
		t.Fatal(err)
	}
	// t4, t5, t6 are iPhone tasks (IDs 3, 4, 5).
	for _, id := range []int{3, 5} {
		if got := e.Accuracy("w", id); got <= base {
			t.Fatalf("iPhone task %d: accuracy %v should exceed base", id, got)
		}
	}
	// t7, t8 (iPod: 6, 7) and t10, t12 (iPad: 9, 11) should drop. (t11 is
	// isolated at Jaccard threshold 0.5, so no evidence reaches it.)
	for _, id := range []int{6, 7, 9, 11} {
		if got := e.Accuracy("w", id); got >= base {
			t.Fatalf("task %d: accuracy %v should be below base", id, got)
		}
	}
	// The observation on t1 itself is strongest: well above base, though
	// shrinkage toward base keeps a single observation below certainty.
	if got := e.Accuracy("w", 0); got < 0.75 {
		t.Fatalf("self estimate %v too low", got)
	}
}

func TestObserveReplacesValue(t *testing.T) {
	_, e := table1Estimator(t)
	e.EnsureWorker("w", 0.5)
	if err := e.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	high := e.Accuracy("w", 3)
	if err := e.Observe("w", 0, 0); err != nil {
		t.Fatal(err)
	}
	low := e.Accuracy("w", 3)
	if low >= high {
		t.Fatalf("re-observation should lower estimate: %v vs %v", low, high)
	}
	// Re-observing must not double-count mass.
	if n := len(e.Observed("w")); n != 1 {
		t.Fatalf("observed %d tasks, want 1", n)
	}
	m := e.Mass("w", 3)
	_ = e.Observe("w", 0, 0.5)
	if got := e.Mass("w", 3); math.Abs(got-m) > 1e-12 {
		t.Fatalf("mass changed on re-observation: %v vs %v", got, m)
	}

	// After a random observe/re-observe sequence over several workers,
	// every estimate equals a from-scratch combination of the worker's
	// current observations.
	rng := rand.New(rand.NewSource(7))
	ids := []string{"w", "x", "y", "z"}
	for _, id := range ids[1:] {
		e.EnsureWorker(id, 0.3+0.6*rng.Float64())
	}
	for i := 0; i < 200; i++ {
		id := ids[rng.Intn(len(ids))]
		if err := e.Observe(id, rng.Intn(e.NumTasks()), rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		obs := e.Observed(id)
		for tid := 0; tid < e.NumTasks(); tid++ {
			var num, den float64
			for j, q := range obs {
				p := e.basis.Vec(j)[tid]
				num += q * p
				den += p
			}
			want := stats.Clamp01((num + DefaultLambda*e.Base(id)) / (den + DefaultLambda))
			if got := e.Accuracy(id, tid); math.Abs(got-want) > 1e-12 {
				t.Fatalf("worker %s task %d: Accuracy %v, from scratch %v", id, tid, got, want)
			}
		}
	}
}

func TestObserveOutOfRange(t *testing.T) {
	_, e := table1Estimator(t)
	if err := e.Observe("w", -1, 1); err == nil {
		t.Fatal("negative task should error")
	}
	if err := e.Observe("w", 9999, 1); err == nil {
		t.Fatal("out-of-range task should error")
	}
}

func TestAccuracyStaysInRange(t *testing.T) {
	ds, e := table1Estimator(t)
	e.EnsureWorker("w", 0.9)
	// Pile up many positive observations in one cluster: estimates must not
	// exceed 1 (this is what the mass normalization buys us).
	for _, id := range []int{0, 3, 4, 5} {
		if err := e.Observe("w", id, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ds.Len(); i++ {
		p := e.Accuracy("w", i)
		if p < 0 || p > 1 {
			t.Fatalf("task %d: accuracy %v out of range", i, p)
		}
	}
	// And perfect evidence should push estimates close to 1 in-cluster.
	if p := e.Accuracy("w", 5); p < 0.9 {
		t.Fatalf("in-cluster estimate %v too low", p)
	}
}

func TestObservedAccuracyEq5(t *testing.T) {
	// Worked example: W1 = {0.8, 0.7} agree with consensus, W2 = {0.6}.
	// P1 = 0.56, P1bar = 0.06, P2 = 0.6, P2bar = 0.4.
	// agree: P1*P2bar / (P1*P2bar + P1bar*P2) = 0.224/(0.224+0.036).
	got := ObservedAccuracy([]float64{0.8, 0.7}, []float64{0.6}, true)
	want := 0.224 / (0.224 + 0.036)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("agree case = %v, want %v", got, want)
	}
	gotD := ObservedAccuracy([]float64{0.8, 0.7}, []float64{0.6}, false)
	if math.Abs(gotD-(1-want)) > 1e-12 {
		t.Fatalf("disagree case = %v, want %v", gotD, 1-want)
	}
}

func TestObservedAccuracyDegenerate(t *testing.T) {
	// All certain: clamping keeps the result finite and sensible.
	got := ObservedAccuracy([]float64{1, 1}, []float64{0}, true)
	if math.IsNaN(got) || got <= 0.5 {
		t.Fatalf("degenerate agree = %v", got)
	}
	// No voters at all: 0.5.
	if got := ObservedAccuracy(nil, nil, true); got != 0.5 {
		t.Fatalf("empty = %v", got)
	}
	// Unanimous agreement: worker very likely correct.
	if got := ObservedAccuracy([]float64{0.8, 0.8, 0.8}, nil, true); got < 0.9 {
		t.Fatalf("unanimous = %v", got)
	}
}

func TestObserveConsensusPaperExample(t *testing.T) {
	// Figure 4 / Section 3.2: t6 completed by {w1, w2, w5}; w1 and w5
	// agree with consensus YES, w2 voted NO. Observed accuracy of w1 is
	// p1 p5 (1-p2) / (p1 p5 (1-p2) + (1-p1)(1-p5) p2).
	_, e := table1Estimator(t)
	e.EnsureWorker("w1", 0.8)
	e.EnsureWorker("w2", 0.6)
	e.EnsureWorker("w5", 0.7)
	votes := []aggregate.Vote{
		{Worker: "w1", Answer: task.Yes},
		{Worker: "w2", Answer: task.No},
		{Worker: "w5", Answer: task.Yes},
	}
	if err := e.ObserveConsensus(5, votes, task.Yes); err != nil {
		t.Fatal(err)
	}
	p1, p2, p5 := 0.8, 0.6, 0.7
	num := p1 * p5 * (1 - p2)
	den := num + (1-p1)*(1-p5)*p2
	want := num / den
	if got := e.Observed("w1")[5]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("q6^w1 = %v, want %v", got, want)
	}
	if got := e.Observed("w2")[5]; math.Abs(got-(1-want)) > 1e-9 {
		t.Fatalf("q6^w2 = %v, want %v", got, 1-want)
	}
	if err := e.ObserveConsensus(5, votes, task.None); err == nil {
		t.Fatal("non-binary consensus should error")
	}
}

func TestMassAndSupport(t *testing.T) {
	_, e := table1Estimator(t)
	e.EnsureWorker("a", 0.5)
	e.EnsureWorker("b", 0.5)
	if err := e.Observe("a", 0, 1); err != nil { // t1: iPhone cluster
		t.Fatal(err)
	}
	if e.Mass("a", 0) <= 0 || e.Mass("a", 3) <= 0 {
		t.Fatal("mass should propagate within cluster")
	}
	if e.Mass("a", 10) != 0 {
		t.Fatal("mass should not reach the isolated task t11")
	}
	if e.Mass("ghost", 0) != 0 {
		t.Fatal("unknown worker should have zero mass")
	}
	col := e.Column(3)
	if a, _ := e.WorkerIndex("a"); len(col) != 1 || col[0].Worker != a {
		t.Fatalf("Column(3) = %v, want one cell for a", col)
	}
	if got := e.CellAccuracy(col[0]); got != e.Accuracy("a", 3) {
		t.Fatalf("CellAccuracy = %v, Accuracy = %v", got, e.Accuracy("a", 3))
	}
	if got := e.Column(10); len(got) != 0 {
		t.Fatalf("Column(10) = %v, want empty (t11 is isolated)", got)
	}
}

func TestEffectiveCountsAndUncertainty(t *testing.T) {
	_, e := table1Estimator(t)
	e.EnsureWorker("w", 0.5)
	n1, n0 := e.EffectiveCounts("w", 0)
	if n1 != 0 || n0 != 0 {
		t.Fatal("no evidence should give zero counts")
	}
	before := e.Uncertainty("w", 0)
	if err := e.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	after := e.Uncertainty("w", 0)
	if after >= before {
		t.Fatalf("observation should reduce uncertainty: %v -> %v", before, after)
	}
	n1, n0 = e.EffectiveCounts("w", 0)
	if n1 < 0.99 { // one correct observation at the seed ~ one count
		t.Fatalf("n1 = %v, want about 1", n1)
	}
	if n0 < 0 {
		t.Fatalf("n0 = %v negative", n0)
	}
	if u := e.Uncertainty("ghost", 0); math.Abs(u-1.0/12) > 1e-12 {
		t.Fatalf("unknown worker uncertainty = %v, want Beta(1,1) variance", u)
	}
}

func TestRawCombineMatchesDenseSolve(t *testing.T) {
	// The estimator's raw Lemma-3 combination must equal solving Eq. (4)
	// directly with the observed vector (on an exact basis).
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := ppr.DefaultOptions()
	o.DropTol = 0
	basis, err := ppr.Precompute(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e := New(basis, 0)
	e.EnsureWorker("w", 0.5)
	obs := map[int]float64{0: 1, 1: 0, 2: 0.4}
	for id, q := range obs {
		if err := e.Observe("w", id, q); err != nil {
			t.Fatal(err)
		}
	}
	raw := e.RawCombine("w")
	q := make([]float64, g.N())
	for id, v := range obs {
		q[id] = v
	}
	dense, _, err := ppr.DenseSolve(g, q, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		if math.Abs(raw[i]-dense[i]) > 1e-6 {
			t.Fatalf("task %d: raw %v vs dense %v", i, raw[i], dense[i])
		}
	}
	if e.RawCombine("ghost") != nil {
		t.Fatal("RawCombine of unknown worker should be nil")
	}
	if e.Observed("ghost") != nil {
		t.Fatal("Observed of unknown worker should be nil")
	}
}

func TestHasObserved(t *testing.T) {
	_, e := table1Estimator(t)
	e.EnsureWorker("w", 0.5)
	if e.HasObserved("w", 0) {
		t.Fatal("nothing observed yet")
	}
	_ = e.Observe("w", 0, 1)
	if !e.HasObserved("w", 0) || e.HasObserved("w", 1) || e.HasObserved("ghost", 0) {
		t.Fatal("HasObserved mismatch")
	}
}

// TestUnconvergedBasisReadsCounted pins the online half of the convergence
// contract: observations combined through a truncated (or never-solved)
// basis vector are counted, while reads of converged vectors are not.
func TestUnconvergedBasisReadsCounted(t *testing.T) {
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := ppr.DefaultOptions()
	o.MaxIter = 1 // force truncation
	truncated, err := ppr.Precompute(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e := New(truncated, 0)
	before := mUnconvergedReads.Value()
	if err := e.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := mUnconvergedReads.Value(); got != before+1 {
		t.Fatalf("unconverged-read counter %d, want %d", got, before+1)
	}
	if r := e.BasisResult(0); r.Converged {
		t.Fatal("BasisResult(0) reported converged for a truncated solve")
	}

	// A converged basis does not move the counter.
	_, ec := table1Estimator(t)
	before = mUnconvergedReads.Value()
	if err := ec.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := mUnconvergedReads.Value(); got != before {
		t.Fatalf("counter moved to %d on a converged read", got)
	}
}
