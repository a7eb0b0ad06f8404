package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"icrowd/internal/task"
)

// goldenAdaptiveHash is the FNV-64a digest of every RequestTask result and
// the final Results of the TestGoldenAdaptiveRun job. It changes only when
// some assignment decision changes; a refactor of the estimator, the index,
// the scheduler or Greedy that claims identical behaviour must leave it as
// it is.
const goldenAdaptiveHash uint64 = 0xb4648efc8a3f84ea

// TestGoldenAdaptiveRun drives one full adaptive job on the ItemCompare
// shape (360 tasks, 53 workers, k=3, q=10 — the dataset the end-to-end
// benchmark serves) with the deterministic parity crowd: round-robin
// requests, parityAnswer answers and the periodic WorkerInactive churn of
// TestSchemeCacheParity. It pins a hash of every decision, so a changed
// assignment anywhere in the job fails here rather than only in the
// benchmark's quality metrics.
func TestGoldenAdaptiveRun(t *testing.T) {
	ds := task.GenerateItemCompare(1)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	ic, err := New(ds, basis, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	workers := parityWorkers(53)
	h := fnv.New64a()
	for step := 0; step < 400*ds.Len() && !ic.Done(); step++ {
		w := workers[step%len(workers)]
		tid, ok := ic.RequestTask(w)
		fmt.Fprintf(h, "%d:%d:%t;", step, tid, ok)
		if ok {
			ans := parityAnswer(ds, w, tid, parityAcc(step%len(workers)))
			if err := ic.SubmitAnswer(w, tid, ans); err != nil {
				t.Fatalf("step %d worker %s task %d: %v", step, w, tid, err)
			}
		}
		if step%97 == 96 {
			ic.WorkerInactive(workers[(step/97)%len(workers)])
		}
	}
	if !ic.Done() {
		t.Fatalf("job did not complete: %d/%d tasks", ic.Job().NumCompleted(), ds.Len())
	}
	res := ic.Results()
	for tid := 0; tid < ds.Len(); tid++ {
		fmt.Fprintf(h, "%d=%d;", tid, res[tid])
	}
	if got := h.Sum64(); got != goldenAdaptiveHash {
		t.Fatalf("adaptive run digest %#x, want %#x", got, goldenAdaptiveHash)
	}
}
