package baseline

import (
	"fmt"
	"hash/fnv"
	"testing"

	"icrowd/internal/core"
	"icrowd/internal/task"
)

// goldenAnswer answers deterministically: worker i is correct on a task
// with probability 70..97%, decided by a hash of (worker, task) so the same
// pair always answers the same way whatever the request order.
func goldenAnswer(ds *task.Dataset, worker string, i, tid int) task.Answer {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", worker, tid)
	if h.Sum32()%100 < uint32(70+(i*7)%28) {
		return ds.Tasks[tid].Truth
	}
	return ds.Tasks[tid].Truth.Flip()
}

// goldenHolds reports whether a worker keeps a freshly delivered task for
// one round instead of answering it at once: the redelivery on its next
// request is answered, unless churn releases the task first.
func goldenHolds(worker string, tid int) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "hold/%s/%d", worker, tid)
	return h.Sum32()%5 == 0
}

// TestGoldenBaselineRuns drives one ItemCompare job (360 tasks, k=3, 53
// workers, 10 qualification tasks) per baseline with a deterministic crowd:
// round-robin requests, hashed answers, workers that sometimes hold a task
// across a round, and a WorkerInactive every 97 steps. It pins an FNV-64a
// digest of every RequestTask result and the final Results, so a changed
// assignment or aggregate anywhere in the job bookkeeping fails here.
func TestGoldenBaselineRuns(t *testing.T) {
	ds := task.GenerateItemCompare(1)
	qual := make([]int, 0, 10)
	for q := 0; q < ds.Len(); q += 36 {
		qual = append(qual, q)
	}
	workers := make([]string, 53)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%02d", i)
	}
	for _, tc := range []struct {
		name string
		new  func() (core.Strategy, error)
		want uint64
	}{
		{"RandomMV", func() (core.Strategy, error) { return NewRandomMV(ds, 3, qual, 7) }, 0x7b039c6bf399ca29},
		{"RandomEM", func() (core.Strategy, error) { return NewRandomEM(ds, 3, qual, 7) }, 0x367b7591784223e7},
		{"AvgAccPV", func() (core.Strategy, error) { return NewAvgAccPV(ds, 3, qual, 0, 7) }, 0x62811eae0f8ae8fb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.new()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			held := map[string]int{}
			for step := 0; step < 400*ds.Len() && !s.Done(); step++ {
				i := step % len(workers)
				w := workers[i]
				tid, ok := s.RequestTask(w)
				fmt.Fprintf(h, "%d:%d:%t;", step, tid, ok)
				if prev, holding := held[w]; ok && (!holding || prev != tid) && goldenHolds(w, tid) {
					held[w] = tid
				} else if ok {
					delete(held, w)
					if err := s.SubmitAnswer(w, tid, goldenAnswer(ds, w, i, tid)); err != nil {
						t.Fatalf("step %d worker %s task %d: %v", step, w, tid, err)
					}
				}
				if step%97 == 96 {
					leaver := workers[(step/97)%len(workers)]
					s.WorkerInactive(leaver)
					delete(held, leaver)
				}
			}
			if !s.Done() {
				t.Fatal("job did not complete")
			}
			res := s.Results()
			for tid := 0; tid < ds.Len(); tid++ {
				fmt.Fprintf(h, "%d=%d;", tid, res[tid])
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("%s digest %#x, want %#x", tc.name, got, tc.want)
			}
		})
	}
}
