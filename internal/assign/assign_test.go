package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"icrowd/internal/estimate"
	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

func table1Estimator(t testing.TB) *estimate.Estimator {
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
	return estimate.New(basis, 0)
}

func TestTopWorkersBasic(t *testing.T) {
	e := table1Estimator(t)
	e.EnsureWorker("low", 0.55)
	e.EnsureWorker("mid", 0.7)
	e.EnsureWorker("high", 0.9)
	got := TopWorkers(e, 0, 2, []string{"low", "mid", "high"})
	if len(got) != 2 || got[0].Worker != "high" || got[1].Worker != "mid" {
		t.Fatalf("TopWorkers = %v", got)
	}
	if got[0].Accuracy != 0.9 {
		t.Fatalf("accuracy = %v", got[0].Accuracy)
	}
	// k larger than eligible set returns all.
	if got := TopWorkers(e, 0, 10, []string{"low", "mid"}); len(got) != 2 {
		t.Fatalf("over-ask = %v", got)
	}
	if got := TopWorkers(e, 0, 0, []string{"low"}); got != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestTopWorkersUsesGraphEvidence(t *testing.T) {
	// A lower-base worker with strong in-cluster evidence should outrank a
	// higher-base worker on the evidenced task.
	e := table1Estimator(t)
	e.EnsureWorker("generalist", 0.65)
	e.EnsureWorker("specialist", 0.6)
	_ = e.ObserveQualification("specialist", 0, true)                // t1 correct
	_ = e.ObserveQualification("specialist", 4, true)                // t5 correct
	_ = e.ObserveQualification("specialist", 5, true)                // t6 correct
	got := TopWorkers(e, 3, 1, []string{"generalist", "specialist"}) // t4 (iPhone)
	if got[0].Worker != "specialist" {
		t.Fatalf("expected evidence to beat base: %v", got)
	}
}

func TestIndexMatchesReference(t *testing.T) {
	// The index must produce identical top-worker sets as the O(|W|) scan,
	// across random evidence patterns and the edge cases below.
	e := table1Estimator(t)
	rng := rand.New(rand.NewSource(3))
	var active []string
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("w%02d", i)
		active = append(active, id)
		e.EnsureWorker(id, 0.4+0.5*rng.Float64())
		// Random qualification evidence.
		for _, tid := range []int{0, 1, 2} {
			if rng.Float64() < 0.5 {
				_ = e.ObserveQualification(id, tid, rng.Float64() < 0.5)
			}
		}
	}
	// Twins registered in reverse ID order with the same base and the same
	// evidence: their estimates tie exactly on every task.
	for _, id := range []string{"twin-b", "twin-a"} {
		e.EnsureWorker(id, 0.9)
		for _, tid := range []int{0, 1, 2} {
			_ = e.ObserveQualification(id, tid, true)
		}
	}
	// A worker who would rank first wherever they have evidence.
	e.EnsureWorker("star", 0.95)
	for _, tid := range []int{0, 1, 2, 6} {
		_ = e.ObserveQualification("star", tid, true)
	}
	registered := e.NumWorkers()

	withAll := func(extra ...string) []string {
		return append(append([]string(nil), active...), extra...)
	}
	var everyThird []string
	for i := 0; i < len(active); i += 3 {
		everyThird = append(everyThird, active[i])
	}
	var crowd []string // unseen workers at DefaultBase, ranked among the rest
	for i := 0; i < 300; i++ {
		crowd = append(crowd, fmt.Sprintf("u%03d", i))
	}
	cases := []struct {
		name     string
		active   []string
		excluded map[string]bool
	}{
		{"random", active, map[string]bool{"w03": true, "w17": true}},
		{"ties", withAll("twin-a", "twin-b"), nil},
		{"excluded-first", withAll("star", "twin-a"), map[string]bool{"star": true}},
		// Active workers the estimator has never seen estimate at
		// DefaultBase, and the index must not register them.
		{"unseen", withAll("new-x", "new-y"), nil},
		// Workers with evidence in the column but outside the active set.
		{"partial-column", everyThird, map[string]bool{"w06": true}},
		// More active workers than the index's stack buffer covers.
		{"large-crowd", withAll(crowd...), map[string]bool{"u000": true}},
	}
	for _, tc := range cases {
		ix := NewIndex(e, tc.active)
		if ix.NumActive() != len(tc.active) {
			t.Fatalf("%s: NumActive = %d, want %d", tc.name, ix.NumActive(), len(tc.active))
		}
		excl := func(pos int) bool { return tc.excluded[tc.active[pos]] }
		var eligible []string
		for _, w := range tc.active {
			if !tc.excluded[w] {
				eligible = append(eligible, w)
			}
		}
		for tid := 0; tid < 12; tid++ {
			for _, k := range []int{1, 3, 5, 40} {
				want := TopWorkers(e, tid, k, eligible)
				got := ix.TopWorkers(nil, tid, k, excl)
				if len(got) != len(want) {
					t.Fatalf("%s task %d k %d: %v vs %v", tc.name, tid, k, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s task %d k %d pos %d: %v vs %v", tc.name, tid, k, i, got[i], want[i])
					}
				}
			}
		}
		if got := ix.TopWorkers(nil, 0, 0, nil); got != nil {
			t.Fatalf("%s: k=0 should be nil", tc.name)
		}
	}
	if e.NumWorkers() != registered || e.Known("new-x") {
		t.Fatal("the index registered workers in the estimator")
	}
}

func cand(taskID int, ws ...interface{}) CandidateAssignment {
	a := CandidateAssignment{Task: taskID}
	for i := 0; i < len(ws); i += 2 {
		a.Workers = append(a.Workers, Candidate{Worker: ws[i].(string), Accuracy: ws[i+1].(float64)})
	}
	return a
}

func TestGreedyPaperExample(t *testing.T) {
	// Table 3: greedy picks t11 {w5,w3}, removing t4 and t10, then t9.
	cands := []CandidateAssignment{
		cand(4, "w5", 0.75, "w4", 0.7, "w1", 0.6),
		cand(11, "w5", 0.85, "w3", 0.8),
		cand(9, "w4", 0.85, "w2", 0.75, "w1", 0.7),
		cand(10, "w3", 0.7, "w1", 0.6),
	}
	got := Greedy(cands)
	if len(got) != 2 {
		t.Fatalf("scheme size %d, want 2", len(got))
	}
	if got[0].Task != 11 || got[1].Task != 9 {
		t.Fatalf("scheme = %v", got)
	}
	wantVal := 0.85 + 0.8 + 0.85 + 0.75 + 0.7
	if v := TotalValue(got); math.Abs(v-wantVal) > 1e-12 {
		t.Fatalf("value %v, want %v", v, wantVal)
	}
}

func TestGreedyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := 3 + rng.Intn(8)
		var cands []CandidateAssignment
		nt := 1 + rng.Intn(15)
		for ti := 0; ti < nt; ti++ {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(nw)
			var ws []Candidate
			for _, wi := range perm[:k] {
				acc := 0.5 + rng.Float64()/2
				if seed%2 == 0 { // coarse accuracies: many exact score ties
					acc = 0.6 + 0.1*float64(rng.Intn(3))
				}
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: acc})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		// Input order differs from task order, so ties must break by task.
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		a, b := Greedy(cands), GreedyReference(cands)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Task != b[i].Task {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySchemesAreDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []CandidateAssignment
		for ti := 0; ti < 20; ti++ {
			k := 1 + rng.Intn(3)
			var ws []Candidate
			for _, wi := range rng.Perm(6)[:k] {
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: rng.Float64()})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		used := map[string]bool{}
		for _, a := range Greedy(cands) {
			for _, w := range a.Workers {
				if used[w.Worker] {
					return false
				}
				used[w.Worker] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySkipsEmptySets(t *testing.T) {
	cands := []CandidateAssignment{
		{Task: 0},
		cand(1, "a", 0.9),
	}
	got := Greedy(cands)
	if len(got) != 1 || got[0].Task != 1 {
		t.Fatalf("scheme = %v", got)
	}
	if got := Greedy(nil); got != nil {
		t.Fatal("empty input should give empty scheme")
	}
}

func TestOptimalSimple(t *testing.T) {
	// Greedy is fooled: it picks the 0.9-avg pair, blocking two 0.8 tasks.
	cands := []CandidateAssignment{
		cand(0, "a", 0.9, "b", 0.9),
		cand(1, "a", 0.8),
		cand(2, "b", 0.8),
	}
	val, scheme, err := Optimal(cands)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal value: 1.8 (pick task 0) vs 1.6 (tasks 1+2) — task 0 wins on
	// sum objective.
	if math.Abs(val-1.8) > 1e-12 {
		t.Fatalf("optimal value = %v", val)
	}
	if len(scheme) != 1 || scheme[0].Task != 0 {
		t.Fatalf("scheme = %v", scheme)
	}
}

func TestOptimalBeatsGreedyCase(t *testing.T) {
	// Construct a case where greedy is strictly suboptimal: greedy takes
	// the highest-average single, optimal packs two others.
	cands := []CandidateAssignment{
		cand(0, "a", 0.99, "b", 0.5), // avg 0.745, sum 1.49
		cand(1, "a", 0.9),            // avg 0.9 -> greedy takes this first
		cand(2, "b", 0.55),           // then this; total 1.45
	}
	gv := TotalValue(Greedy(cands))
	ov, _, err := Optimal(cands)
	if err != nil {
		t.Fatal(err)
	}
	if !(ov > gv) {
		t.Fatalf("expected optimal %v > greedy %v", ov, gv)
	}
}

func TestOptimalMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := 2 + rng.Intn(5)
		var cands []CandidateAssignment
		nt := 1 + rng.Intn(10)
		for ti := 0; ti < nt; ti++ {
			k := 1 + rng.Intn(nw)
			perm := rng.Perm(nw)
			var ws []Candidate
			for _, wi := range perm[:k] {
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: rng.Float64()})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		dp, _, err := Optimal(cands)
		if err != nil {
			return false
		}
		return math.Abs(dp-OptimalEnumerate(cands)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalAtLeastGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []CandidateAssignment
		for ti := 0; ti < 12; ti++ {
			var ws []Candidate
			for j := 0; j <= rng.Intn(3); j++ {
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", rng.Intn(8)), Accuracy: rng.Float64()})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		ov, _, err := Optimal(cands)
		if err != nil {
			return false
		}
		return ov >= TotalValue(Greedy(cands))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSchemeFeasibleAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cands []CandidateAssignment
	for ti := 0; ti < 25; ti++ {
		var ws []Candidate
		perm := rng.Perm(10)
		for _, wi := range perm[:1+rng.Intn(3)] {
			ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: rng.Float64()})
		}
		cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
	}
	val, scheme, err := Optimal(cands)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	var sum float64
	for _, a := range scheme {
		for _, w := range a.Workers {
			if used[w.Worker] {
				t.Fatal("optimal scheme reuses a worker")
			}
			used[w.Worker] = true
		}
		sum += a.SumAccuracy()
	}
	if math.Abs(sum-val) > 1e-9 {
		t.Fatalf("scheme value %v != reported %v", sum, val)
	}
}

func TestOptimalTooManyWorkers(t *testing.T) {
	var cands []CandidateAssignment
	for i := 0; i < 31; i++ {
		cands = append(cands, cand(i, fmt.Sprintf("w%d", i), 0.5))
	}
	if _, _, err := Optimal(cands); err != ErrTooManyWorkers {
		t.Fatalf("want ErrTooManyWorkers, got %v", err)
	}
}

func TestPerformanceTest(t *testing.T) {
	e := table1Estimator(t)
	e.EnsureWorker("w", 0.6)
	// Worker has evidence around the iPhone cluster (t1): low uncertainty
	// there. The iPod task (t8 = ID 7) is unexplored: high uncertainty.
	_ = e.ObserveQualification("w", 0, true)
	_ = e.ObserveQualification("w", 5, true)
	eligible := []TestTask{
		{Task: 3, AssignedAccuracies: []float64{0.8, 0.8}}, // iPhone, known region
		{Task: 7, AssignedAccuracies: []float64{0.8, 0.8}}, // iPod, unknown region
	}
	got, ok := PerformanceTest(e, "w", eligible)
	if !ok || got != 7 {
		t.Fatalf("PerformanceTest = %d %v, want 7", got, ok)
	}
	// Quality of the existing worker set matters: same uncertainty, higher
	// quality wins.
	eligible = []TestTask{
		{Task: 7, AssignedAccuracies: []float64{0.55}},
		{Task: 8, AssignedAccuracies: []float64{0.95}},
	}
	got, ok = PerformanceTest(e, "w", eligible)
	if !ok || got != 8 {
		t.Fatalf("PerformanceTest quality tie-break = %d, want 8", got)
	}
	if _, ok := PerformanceTest(e, "w", nil); ok {
		t.Fatal("empty eligible set should report not ok")
	}
	// Tasks with no assigned workers still get the fallback quality.
	got, ok = PerformanceTest(e, "w", []TestTask{{Task: 9}})
	if !ok || got != 9 {
		t.Fatalf("fallback = %d %v", got, ok)
	}
}

func TestSumAvgAccuracy(t *testing.T) {
	a := cand(1, "x", 0.8, "y", 0.6)
	if v := a.SumAccuracy(); math.Abs(v-1.4) > 1e-12 {
		t.Fatalf("sum = %v", v)
	}
	if v := a.AvgAccuracy(); math.Abs(v-0.7) > 1e-12 {
		t.Fatalf("avg = %v", v)
	}
	empty := CandidateAssignment{Task: 0}
	if empty.AvgAccuracy() != 0 {
		t.Fatal("empty avg should be 0")
	}
}
