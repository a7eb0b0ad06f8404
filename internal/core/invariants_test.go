package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"icrowd/internal/task"
)

// checkJobInvariants asserts the structural invariants every strategy run
// must preserve, whatever the request interleaving:
//
//  1. no worker votes twice on the same microtask,
//  2. a completed microtask has at least need = floor(k/2)+1 agreeing votes
//     (or a full k votes for even-k tie resolution),
//  3. consensus matches the majority of its recorded votes,
//  4. no microtask collects more than k consensus votes... except a single
//     late vote from an assignment that was outstanding at completion time,
//  5. capacity never goes negative.
func checkJobInvariants(t *testing.T, j *Job) {
	t.Helper()
	ds := j.Dataset()
	k := j.K()
	need := k/2 + 1
	for tid := 0; tid < ds.Len(); tid++ {
		votes := j.Votes(tid)
		seen := map[string]bool{}
		var yes, no int
		for _, v := range votes {
			if seen[v.Worker] {
				t.Fatalf("task %d: duplicate vote by %s", tid, v.Worker)
			}
			seen[v.Worker] = true
			if v.Answer == task.Yes {
				yes++
			} else {
				no++
			}
		}
		if len(votes) > k+1 {
			t.Fatalf("task %d has %d votes with k=%d", tid, len(votes), k)
		}
		if c := j.Capacity(tid); c < 0 {
			t.Fatalf("task %d has negative capacity", tid)
		}
		if ans, done := j.Completed(tid); done && len(votes) > 0 {
			switch ans {
			case task.Yes:
				if yes < need && yes+no < k {
					t.Fatalf("task %d completed YES with %d/%d votes", tid, yes, no)
				}
				if no > yes {
					t.Fatalf("task %d consensus YES against majority", tid)
				}
			case task.No:
				if no < need && yes+no < k {
					t.Fatalf("task %d completed NO with %d/%d votes", tid, yes, no)
				}
				if yes > no {
					t.Fatalf("task %d consensus NO against majority", tid)
				}
			}
		}
	}
}

// checkAssignmentWithinK asserts the Step-2 constraint right after taskID
// was handed out: an uncompleted microtask never has more votes plus
// regular holders than its assignment size k.
func checkAssignmentWithinK(j *Job, taskID int) error {
	if _, done := j.Completed(taskID); done {
		return nil
	}
	if n := len(j.Votes(taskID)) + len(j.PendingWorkers(taskID)); n > j.K() {
		return fmt.Errorf("task %d has %d votes plus holders with k=%d", taskID, n, j.K())
	}
	return nil
}

// TestSystemInvariantsUnderRandomInterleavings drives the full framework
// with random request orders, churn, and answer noise — a worker may keep
// its task across other workers' requests and submits — checks the Step-2
// capacity after every assignment, then checks the Job invariants.
func TestSystemInvariantsUnderRandomInterleavings(t *testing.T) {
	ds, basis := table1Basis(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Q = 3
		cfg.K = 1 + 2*rng.Intn(3) // k in {1, 3, 5}
		cfg.Mode = []Mode{ModeAdapt, ModeQFOnly, ModeBestEffort}[rng.Intn(3)]
		ic, err := New(ds, basis, cfg)
		if err != nil {
			return false
		}
		workers := []string{"a", "b", "c", "d", "e", "f", "g"}
		accs := make(map[string]float64, len(workers))
		for _, w := range workers {
			accs[w] = 0.3 + 0.7*rng.Float64()
		}
		held := map[string]int{} // worker -> task delivered but not yet answered
		for step := 0; step < 3000 && !ic.Done(); step++ {
			w := workers[rng.Intn(len(workers))]
			if rng.Float64() < 0.03 {
				ic.WorkerInactive(w)
				delete(held, w)
				continue
			}
			tid, holding := held[w]
			if !holding {
				var ok bool
				if tid, ok = ic.RequestTask(w); !ok {
					continue
				}
				if err := checkAssignmentWithinK(ic.Job(), tid); err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
				if rng.Float64() < 0.5 {
					held[w] = tid // answer on a later turn
					continue
				}
			}
			delete(held, w)
			ans := ds.Tasks[tid].Truth
			if rng.Float64() > accs[w] {
				ans = ans.Flip()
			}
			if err := ic.SubmitAnswer(w, tid, ans); err != nil {
				t.Logf("seed %d: submit error: %v", seed, err)
				return false
			}
		}
		checkJobInvariants(t, ic.Job())
		// Estimates stay probabilities for every worker/task.
		for _, w := range workers {
			for tid := 0; tid < ds.Len(); tid += 3 {
				p := ic.Estimator().Accuracy(w, tid)
				if p < 0 || p > 1 {
					t.Logf("seed %d: estimate %v out of range", seed, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestResultsAlwaysCoverAllTasks asserts Results() is total over the
// dataset regardless of run state.
func TestResultsAlwaysCoverAllTasks(t *testing.T) {
	ds, basis := table1Basis(t)
	cfg := DefaultConfig()
	cfg.Q = 3
	ic, err := New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Before any work.
	if got := len(ic.Results()); got != ds.Len() {
		t.Fatalf("fresh results cover %d of %d", got, ds.Len())
	}
	// Mid-run.
	for i := 0; i < 3; i++ {
		tid, ok := ic.RequestTask("w")
		if !ok {
			break
		}
		_ = ic.SubmitAnswer("w", tid, ds.Tasks[tid].Truth)
	}
	if got := len(ic.Results()); got != ds.Len() {
		t.Fatalf("mid-run results cover %d of %d", got, ds.Len())
	}
}
