package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"icrowd/internal/platform"
	"icrowd/internal/sim"
	"icrowd/internal/task"
)

// mix derives an independent seed from a base seed and a path of indices
// (splitmix64 finalizer), so every job, worker and schedule draws its own
// stream while the whole run stays a function of the workload seed.
func mix(base int64, path ...int64) int64 {
	x := uint64(base)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// worker is one simulated crowd member inside a job.
type worker struct {
	prof *sim.Profile
	// rng draws this worker's answers; only the goroutine holding the
	// worker (busy) touches it.
	rng     *rand.Rand
	busy    bool
	retired bool
}

// job is one project driven by a simulated crowd until every worker has
// retired. A worker retires the first time the server refuses it a task (or
// an operation on its behalf fails); it never holds two tasks at once,
// because acquire hands out only workers that are not busy.
type job struct {
	id     string
	n      int // position in the run's sequence of jobs
	client *platform.ProjectClient
	// check is the requester's client for the project, which checks the
	// job once it has ended.
	check *platform.ProjectClient

	mu      sync.Mutex
	cond    *sync.Cond
	workers []*worker
	pick    *rand.Rand // chooses the next worker; guarded by mu
	live    int        // workers not yet retired
	nbusy   int
	stopped bool
	// accepted counts submits the server accepted as new answers.
	accepted int
}

func newJob(id string, client *platform.ProjectClient, pool []sim.Profile, seed int64) *job {
	j := &job{id: id, client: client, pick: rand.New(rand.NewSource(mix(seed, -1)))}
	j.cond = sync.NewCond(&j.mu)
	for i := range pool {
		j.workers = append(j.workers, &worker{prof: &pool[i], rng: rand.New(rand.NewSource(mix(seed, int64(i))))})
	}
	j.live = len(j.workers)
	return j
}

// acquire hands out a free, unretired worker chosen with probability
// proportional to its request rate, waiting while every unretired worker
// is busy. It returns nil once every worker has retired and none is busy
// (the job has ended), or after stop.
func (j *job) acquire() *worker {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.stopped || (j.live == 0 && j.nbusy == 0) {
			return nil
		}
		var total float64
		for _, w := range j.workers {
			if !w.busy && !w.retired {
				total += w.prof.RequestRate
			}
		}
		if total > 0 {
			x := j.pick.Float64() * total
			var last *worker
			for _, w := range j.workers {
				if w.busy || w.retired {
					continue
				}
				last = w
				if x -= w.prof.RequestRate; x < 0 {
					break
				}
			}
			last.busy = true
			j.nbusy++
			return last
		}
		j.cond.Wait()
	}
}

// release returns a worker acquired from j, retiring it when retire is set.
func (j *job) release(w *worker, retire bool) {
	j.mu.Lock()
	if !w.busy {
		j.mu.Unlock()
		panic("bench: release of a worker that is not busy")
	}
	w.busy = false
	j.nbusy--
	if retire && !w.retired {
		w.retired = true
		j.live--
	}
	j.mu.Unlock()
	j.cond.Broadcast()
}

// stop makes every current and future acquire return nil.
func (j *job) stop() {
	j.mu.Lock()
	j.stopped = true
	j.mu.Unlock()
	j.cond.Broadcast()
}

// jobOutcome is what the requester sees once a job's crowd has retired.
type jobOutcome struct {
	ok      bool
	reason  string
	correct int // final answers equal to ground truth
}

// checkJob applies the job-end rule: once every worker has retired the
// project must report Done, and /results must hold a YES or NO answer for
// every task; anything else is a failed job. Correct answers are counted
// against the dataset's ground truth.
func checkJob(ctx context.Context, c platform.ClientAPI, ds *task.Dataset) jobOutcome {
	st, err := c.Status(ctx)
	if err != nil {
		return jobOutcome{reason: "status: " + err.Error()}
	}
	if !st.Done {
		return jobOutcome{reason: fmt.Sprintf("every worker retired but the project is not done (%d/%d tasks completed)", st.Completed, st.Total)}
	}
	res, err := c.Results(ctx)
	if err != nil {
		return jobOutcome{reason: "results: " + err.Error()}
	}
	out := jobOutcome{ok: true}
	for t := range ds.Tasks {
		a, present := res[t]
		if !present || (a != "YES" && a != "NO") {
			return jobOutcome{reason: fmt.Sprintf("task %d has final answer %q", t, a)}
		}
		if a == ds.Tasks[t].Truth.String() {
			out.correct++
		}
	}
	if len(res) != ds.Len() {
		return jobOutcome{reason: fmt.Sprintf("results hold %d tasks, dataset has %d", len(res), ds.Len())}
	}
	return out
}
