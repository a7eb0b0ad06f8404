package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"icrowd/internal/task"
)

// TestJobMatchesReference drives the slice-indexed Job and the map-based
// refJob it replaced with the same random operation sequences — regular
// and test assignments, submits (late votes after consensus and test
// answers included), releases and forced completions, for workers the job
// has never seen and task IDs outside the dataset — and compares every
// returned error and every read method after each operation.
func TestJobMatchesReference(t *testing.T) {
	ds := task.ProductMatching()
	workers := []string{"a", "b", "c", "d", "e", "f", "ghost"} // "ghost" never acts
	taskIDs := []int{-1, ds.Len(), ds.Len() + 3}
	for tid := 0; tid < ds.Len(); tid++ {
		taskIDs = append(taskIDs, tid)
	}
	answers := []task.Answer{task.Yes, task.No, task.Yes, task.No, task.None}
	for _, k := range []int{1, 2, 3, 5} {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(k)))
			got, err := NewJob(ds, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := newRefJob(ds, k)
			for step := 0; step < 250; step++ {
				w := workers[rng.Intn(len(workers)-1)]
				tid := taskIDs[rng.Intn(len(taskIDs))]
				var op string
				var g, r []any
				switch n := rng.Intn(20); {
				case n < 6:
					op = fmt.Sprintf("Assign(%s, %d)", w, tid)
					g, r = []any{got.Assign(w, tid)}, []any{want.Assign(w, tid)}
				case n < 9:
					op = fmt.Sprintf("AssignTest(%s, %d)", w, tid)
					g, r = []any{got.AssignTest(w, tid)}, []any{want.AssignTest(w, tid)}
				case n < 17:
					// Mostly answer the held task; sometimes a random one.
					if p, ok := want.Pending(w); ok && rng.Intn(4) > 0 {
						tid = p
					}
					ans := answers[rng.Intn(len(answers))]
					op = fmt.Sprintf("Submit(%s, %d, %v)", w, tid, ans)
					gd, gc, ge := got.Submit(w, tid, ans)
					rd, rc, re := want.Submit(w, tid, ans)
					g, r = []any{gd, gc, ge}, []any{rd, rc, re}
				case n < 19:
					op = fmt.Sprintf("Release(%s)", w)
					got.Release(w)
					want.Release(w)
				default:
					ans := answers[rng.Intn(2)]
					op = fmt.Sprintf("ForceComplete(%d, %v)", tid, ans)
					got.ForceComplete(tid, ans)
					want.ForceComplete(tid, ans)
				}
				where := fmt.Sprintf("k=%d seed %d step %d %s", k, seed, step, op)
				if fmt.Sprint(g...) != fmt.Sprint(r...) {
					t.Fatalf("%s: returned %v, reference %v", where, g, r)
				}
				compareJobs(t, where, got, want, workers, taskIDs)
			}
		}
	}
}

// compareJobs fails unless every read method of got agrees with want.
func compareJobs(t *testing.T, where string, got *Job, want *refJob, workers []string, taskIDs []int) {
	t.Helper()
	check := func(what string, arg any, g, r any) {
		t.Helper()
		if !reflect.DeepEqual(g, r) {
			t.Fatalf("%s: %s%v = %v, reference %v", where, what, arg, g, r)
		}
	}
	for _, w := range workers {
		gt, gok := got.Pending(w)
		rt, rok := want.Pending(w)
		if gt != rt || gok != rok {
			check("Pending", w, []any{gt, gok}, []any{rt, rok})
		}
		wi, known := got.WorkerIndex(w)
		for _, tid := range taskIDs {
			touched := want.Touched(w, tid)
			if g := got.Touched(w, tid); g != touched {
				check("Touched", []any{w, tid}, g, touched)
			}
			if g := known && got.TouchedIndex(wi, tid); known && g != touched {
				check("TouchedIndex", []any{w, tid}, g, touched)
			}
			if g, r := got.PendingTest(w, tid), want.PendingTest(w, tid); g != r {
				check("PendingTest", []any{w, tid}, g, r)
			}
		}
	}
	for _, tid := range taskIDs {
		if g, r := got.Capacity(tid), want.Capacity(tid); g != r {
			check("Capacity", tid, g, r)
		}
		check("PendingWorkers", tid, got.PendingWorkers(tid), want.PendingWorkers(tid))
		check("Votes", tid, got.Votes(tid), want.Votes(tid))
		ga, gok := got.Completed(tid)
		ra, rok := want.Completed(tid)
		if ga != ra || gok != rok {
			check("Completed", tid, []any{ga, gok}, []any{ra, rok})
		}
	}
	check("NumCompleted", "", got.NumCompleted(), want.NumCompleted())
	check("Done", "", got.Done(), want.Done())
	check("Uncompleted", "", got.Uncompleted(), want.Uncompleted())
	check("MajorityResults", "", got.MajorityResults(), want.MajorityResults())
	check("AllVotes", "", got.AllVotes(), want.AllVotes())
}
