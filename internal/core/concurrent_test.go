package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"icrowd/internal/task"
)

// parityWorkers builds a deterministic crowd: worker w answers task t
// correctly with probability acc(w), decided by a hash of (w, t) so the
// same (worker, task) pair always answers the same way regardless of
// request order.
func parityWorkers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%02d", i)
	}
	return out
}

func parityAnswer(ds *task.Dataset, worker string, tid int, accPct uint32) task.Answer {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", worker, tid)
	truth := ds.Tasks[tid].Truth
	if h.Sum32()%100 < accPct {
		return truth
	}
	if truth == task.Yes {
		return task.No
	}
	return task.Yes
}

func parityAcc(i int) uint32 { return uint32(70 + (i*7)%28) } // 70..97

func parityBasis(t *testing.T) (*task.Dataset, *ICrowd, *ICrowd) {
	t.Helper()
	ds := task.GenerateYahooQA(3)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cached, err := New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(ds, basis, cfg, WithSchemeCache(false))
	if err != nil {
		t.Fatal(err)
	}
	return ds, cached, fresh
}

// parityHolds reports whether a worker keeps a freshly delivered task for
// one round instead of answering it at once, so busy workers leave the
// active set and rejoin it between scheme recomputations.
func parityHolds(worker string, tid int) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "hold/%s/%d", worker, tid)
	return h.Sum32()%4 == 0
}

// TestSchemeCacheParity drives two identically-configured frameworks — one
// with the incremental scheme cache, one recomputing every top worker set
// from scratch — through the same deterministic request/submit sequence and
// asserts they hand out identical assignments at every step and reach
// identical results. Workers sometimes hold a task across a round, which
// changes the active set between recomputations. This is the
// conservative-invalidation guarantee of the scheduler: incremental ==
// fresh, always.
func TestSchemeCacheParity(t *testing.T) {
	ds, cached, fresh := parityBasis(t)
	workers := parityWorkers(10)

	held := map[string]int{}
	maxSteps := 400 * ds.Len()
	for step := 0; step < maxSteps; step++ {
		if cached.Done() {
			break
		}
		w := workers[step%len(workers)]
		ct, cok := cached.RequestTask(w)
		ft, fok := fresh.RequestTask(w)
		if ct != ft || cok != fok {
			t.Fatalf("step %d worker %s: cached (%d,%v) != fresh (%d,%v)",
				step, w, ct, cok, ft, fok)
		}
		if prev, holding := held[w]; cok && (!holding || prev != ct) && parityHolds(w, ct) {
			held[w] = ct
		} else if cok {
			delete(held, w)
			ans := parityAnswer(ds, w, ct, parityAcc(step%len(workers)))
			if err := cached.SubmitAnswer(w, ct, ans); err != nil {
				t.Fatalf("cached submit: %v", err)
			}
			if err := fresh.SubmitAnswer(w, ct, ans); err != nil {
				t.Fatalf("fresh submit: %v", err)
			}
		}
		// Periodic churn: a worker leaves and their held task is released,
		// exercising the active-set diff invalidation.
		if step%97 == 96 {
			leaver := workers[(step/97)%len(workers)]
			cached.WorkerInactive(leaver)
			fresh.WorkerInactive(leaver)
			delete(held, leaver)
		}
	}
	if !cached.Done() || !fresh.Done() {
		t.Fatalf("parity run did not complete: cached=%v fresh=%v", cached.Done(), fresh.Done())
	}
	cres, fres := cached.Results(), fresh.Results()
	for tid, a := range cres {
		if fres[tid] != a {
			t.Fatalf("task %d: cached result %v != fresh %v", tid, a, fres[tid])
		}
	}
}

// TestEventLogDrain pins the job change feed's contract: each noted task
// is drained once however often it was noted, and a drain empties the feed
// so later notes of the same task are reported again.
func TestEventLogDrain(t *testing.T) {
	l := eventLog{noted: make([]bool, 8)}
	for _, tid := range []int{3, 5, 3, 7, 5} {
		l.note(tid)
	}
	if got := l.drain(nil); !reflect.DeepEqual(got, []int{3, 5, 7}) {
		t.Fatalf("first drain = %v, want [3 5 7]", got)
	}
	if got := l.drain(nil); len(got) != 0 {
		t.Fatalf("drain of an empty feed = %v", got)
	}
	l.note(5)
	if got := l.drain([]int{1}); !reflect.DeepEqual(got, []int{1, 5}) {
		t.Fatalf("drain after re-noting = %v, want [1 5] (appended to dst)", got)
	}
}

// TestConcurrentWorkers hammers one framework from many goroutines — the
// access pattern of the HTTP platform — and checks the job completes. Run
// under -race this is the lock-architecture soak for the sharded ICrowd.
func TestConcurrentWorkers(t *testing.T) {
	ds := task.GenerateYahooQA(5)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ic, err := New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const nWorkers = 16
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := fmt.Sprintf("w%02d", i)
			acc := uint32(80 + (i*5)%18)
			for step := 0; step < 200*ds.Len(); step++ {
				tid, ok := ic.RequestTask(w)
				if !ok {
					if ic.Done() || ic.Rejected(w) {
						return
					}
					continue
				}
				if err := ic.SubmitAnswer(w, tid, parityAnswer(ds, w, tid, acc)); err != nil {
					t.Errorf("worker %s submit(%d): %v", w, tid, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if !ic.Done() {
		t.Fatalf("concurrent run did not complete: %d/%d tasks", ic.Job().NumCompleted(), ds.Len())
	}
	// Post-run sanity on the Strategy surface.
	if got := len(ic.Results()); got != ds.Len() {
		t.Fatalf("results cover %d tasks, want %d", got, ds.Len())
	}
}

// TestConcurrencySafeMarker pins the marker the platform server keys its
// locking strategy on.
func TestConcurrencySafeMarker(t *testing.T) {
	ds := task.ProductMatching()
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	ic, err := New(ds, basis, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var st Strategy = ic
	cs, ok := st.(interface{ ConcurrencySafe() bool })
	if !ok || !cs.ConcurrencySafe() {
		t.Fatal("ICrowd must advertise ConcurrencySafe() == true")
	}
}
