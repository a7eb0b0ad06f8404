package qualify

import (
	"reflect"
	"sort"
	"testing"

	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

func table1Basis(t testing.TB) (*task.Dataset, *ppr.Basis) {
	t.Helper()
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ds, b
}

func TestInfluence(t *testing.T) {
	_, b := table1Basis(t)
	if got := Influence(b, nil); got != 0 {
		t.Fatalf("empty influence = %d", got)
	}
	// The isolated task t11 (ID 10) influences only itself.
	if got := Influence(b, []int{10}); got != 1 {
		t.Fatalf("influence of isolated task = %d, want 1", got)
	}
	// Influence is monotone.
	single := Influence(b, []int{0})
	pair := Influence(b, []int{0, 10})
	if pair != single+1 {
		t.Fatalf("adding isolated task should add exactly 1: %d vs %d", pair, single)
	}
	// Duplicates don't double count.
	if got := Influence(b, []int{0, 0}); got != single {
		t.Fatalf("duplicate influence = %d, want %d", got, single)
	}
}

func TestInfluenceSubmodular(t *testing.T) {
	// Property: marginal gains diminish — INF(A+t) - INF(A) >=
	// INF(B+t) - INF(B) for A ⊆ B. Spot-check over the Table-1 basis.
	_, b := table1Basis(t)
	for tid := 0; tid < b.N(); tid++ {
		a := []int{1}
		bb := []int{1, 2, 0}
		gainA := Influence(b, append(append([]int{}, a...), tid)) - Influence(b, a)
		gainB := Influence(b, append(append([]int{}, bb...), tid)) - Influence(b, bb)
		if gainA < gainB {
			t.Fatalf("submodularity violated at task %d: %d < %d", tid, gainA, gainB)
		}
	}
}

func TestSelectGreedyCoversClusters(t *testing.T) {
	// Figure-3 intuition: with Q=3 the greedy should cover far more tasks
	// than picking three tasks inside one cluster (e.g. {t1, t4, t5}).
	ds, b := table1Basis(t)
	chosen, err := SelectGreedy(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 3 {
		t.Fatalf("chose %d tasks", len(chosen))
	}
	// On the bridged Table-1 graph the binary influence saturates at the
	// big component, so greedy must at least match the single-cluster pick.
	inf := Influence(b, chosen)
	badInf := Influence(b, []int{0, 3, 4}) // t1, t4, t5: all iPhone
	if inf < badInf {
		t.Fatalf("greedy influence %d below single-cluster %d", inf, badInf)
	}
	// Greedy's choices should span at least two domains.
	domains := map[string]bool{}
	for _, id := range chosen {
		domains[ds.Tasks[id].Domain] = true
	}
	if len(domains) < 2 {
		t.Fatalf("greedy picked a single domain: %v", chosen)
	}
}

func TestSelectGreedyNearOptimalOnItemCompare(t *testing.T) {
	ds := task.GenerateItemCompare(2)
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	chosen, err := SelectGreedy(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	greedyInf := Influence(b, chosen)
	// Compare against 20 random selections: greedy should beat them all
	// (coverage greedy is near-optimal; random rarely comes close).
	for seed := int64(0); seed < 20; seed++ {
		r, err := SelectRandom(ds.Len(), 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		if Influence(b, r) > greedyInf {
			t.Fatalf("random seed %d beat greedy: %d > %d", seed, Influence(b, r), greedyInf)
		}
	}
	// Greedy picks should cover all four domains.
	domains := map[string]bool{}
	for _, id := range chosen {
		domains[ds.Tasks[id].Domain] = true
	}
	if len(domains) != 4 {
		t.Fatalf("greedy covered %d domains, want 4", len(domains))
	}
}

func TestSelectGreedyErrorsAndBounds(t *testing.T) {
	_, b := table1Basis(t)
	if _, err := SelectGreedy(b, 0); err == nil {
		t.Fatal("q=0 should error")
	}
	// Asking for more tasks than exist returns at most N.
	chosen, err := SelectGreedy(b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) > b.N() {
		t.Fatalf("chose %d > N", len(chosen))
	}
	seen := map[int]bool{}
	for _, c := range chosen {
		if seen[c] {
			t.Fatal("duplicate selection")
		}
		seen[c] = true
	}
}

func TestSelectRandom(t *testing.T) {
	got, err := SelectRandom(50, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if id < 0 || id >= 50 || seen[id] {
			t.Fatalf("bad selection %v", got)
		}
		seen[id] = true
	}
	// Deterministic per seed.
	again, _ := SelectRandom(50, 10, 1)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("SelectRandom not deterministic")
		}
	}
	// q > n clamps.
	all, _ := SelectRandom(5, 10, 1)
	if len(all) != 5 {
		t.Fatalf("clamp failed: %d", len(all))
	}
	if _, err := SelectRandom(5, 0, 1); err == nil {
		t.Fatal("q=0 should error")
	}
}

func TestSelectDispatch(t *testing.T) {
	_, b := table1Basis(t)
	for _, s := range []Strategy{RandomQF, InfQF} {
		got, err := Select(s, b, 3, 7)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(got) != 3 {
			t.Fatalf("%s chose %d", s, len(got))
		}
	}
	if _, err := Select("bogus", b, 3, 7); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

func TestWarmUp(t *testing.T) {
	ds, _ := table1Basis(t)
	w, err := NewWarmUp(ds, []int{0, 5, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Threshold() != DefaultThreshold {
		t.Fatalf("threshold = %v", w.Threshold())
	}
	if !w.IsQualification(5) || w.IsQualification(1) {
		t.Fatal("IsQualification mismatch")
	}
	// Grade against known truths: t1 (ID 0) is No, t6 (ID 5) is Yes.
	if correct, ok := w.Grade(0, task.No); !ok || !correct {
		t.Fatal("Grade(0, No) should be correct")
	}
	if correct, ok := w.Grade(5, task.No); !ok || correct {
		t.Fatal("Grade(5, No) should be incorrect")
	}
	if _, ok := w.Grade(1, task.No); ok {
		t.Fatal("Grade on non-qualification task should not be ok")
	}
	// Evaluate: 2 of 3 correct => 0.667 passes 0.6.
	avg, pass := w.Evaluate(map[int]task.Answer{0: task.No, 5: task.Yes, 10: task.No})
	if avg < 0.66 || avg > 0.67 || !pass {
		t.Fatalf("Evaluate = %v %v", avg, pass)
	}
	// 1 of 3 fails; unanswered counts as wrong.
	avg, pass = w.Evaluate(map[int]task.Answer{0: task.No})
	if avg > 0.34 || pass {
		t.Fatalf("Evaluate partial = %v %v", avg, pass)
	}
	if tasks := w.Tasks(); len(tasks) != 3 {
		t.Fatalf("Tasks = %v", tasks)
	}
}

func TestWarmUpErrors(t *testing.T) {
	ds, _ := table1Basis(t)
	if _, err := NewWarmUp(ds, nil, 0.6); err == nil {
		t.Fatal("empty qualification should error")
	}
	if _, err := NewWarmUp(ds, []int{99}, 0.6); err == nil {
		t.Fatal("out-of-range qualification should error")
	}
}

func TestInfluenceSoft(t *testing.T) {
	_, b := table1Basis(t)
	if got := InfluenceSoft(b, nil); got != 0 {
		t.Fatalf("empty soft influence = %v", got)
	}
	// Monotone and submodular-ish: adding a task never decreases it, and
	// never adds more than the task alone contributes.
	single := InfluenceSoft(b, []int{0})
	pair := InfluenceSoft(b, []int{0, 5})
	alone5 := InfluenceSoft(b, []int{5})
	if pair < single || pair < alone5 {
		t.Fatalf("soft influence not monotone: %v %v %v", single, alone5, pair)
	}
	if pair > single+alone5+1e-9 {
		t.Fatalf("soft influence superadditive: %v > %v + %v", pair, single, alone5)
	}
	// Bounded by the binary influence (coverage counts each task at most 1).
	if pair > float64(Influence(b, []int{0, 5}))+1e-9 {
		t.Fatalf("soft influence %v exceeds binary %d", pair, Influence(b, []int{0, 5}))
	}
	// The greedy's chosen set should have soft influence at least as high
	// as any random set of equal size (spot check).
	chosen, err := SelectGreedy(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if InfluenceSoft(b, chosen) < InfluenceSoft(b, []int{0, 3, 4}) {
		t.Fatal("greedy soft influence below a same-cluster pick")
	}
}

// selectGreedyReference is SelectGreedy as Algorithm 4 reads: every pick
// rescans each task's sorted support and reads its weights from the basis
// vector. It is the oracle the one-pass SelectGreedy is checked against.
func selectGreedyReference(b *ppr.Basis, q int) []int {
	n := b.N()
	o := b.Options()
	restart := o.Alpha / (1 + o.Alpha)
	weight := func(t, j int) float64 {
		w := b.Vec(t)[j] / restart
		if w > 1 {
			w = 1
		}
		return w
	}
	cov := make([]float64, n)
	chosen := make([]int, 0, q)
	inChosen := make(map[int]bool, q)
	for len(chosen) < q && len(chosen) < n {
		best, bestGain := -1, -1.0
		for t := 0; t < n; t++ {
			if inChosen[t] {
				continue
			}
			var gain float64
			for _, j := range b.Support(t) {
				gain += (1 - cov[j]) * weight(t, j)
			}
			if gain > bestGain+1e-12 {
				best, bestGain = t, gain
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		inChosen[best] = true
		for _, j := range b.Support(best) {
			cov[j] = 1 - (1-cov[j])*(1-weight(best, j))
		}
	}
	sort.Ints(chosen)
	return chosen
}

// TestSelectGreedyMatchesReference pins SelectGreedy's picks to the
// reference scan on both evaluation datasets' graphs.
func TestSelectGreedyMatchesReference(t *testing.T) {
	for _, ds := range []*task.Dataset{task.GenerateItemCompare(1), task.GenerateYahooQA(1)} {
		g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.25, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ppr.Precompute(g, ppr.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{1, 10, 30} {
			got, err := SelectGreedy(b, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := selectGreedyReference(b, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s q=%d: SelectGreedy %v, reference %v", ds.Name, q, got, want)
			}
		}
	}
}
