package core

import (
	"sync"

	"icrowd/internal/assign"
)

// eventLog collects the IDs of microtasks whose job state (capacity, votes,
// touched set) changed since the scheduler last consumed the feed. It is a
// leaf lock: never held across another acquisition.
type eventLog struct {
	mu    sync.Mutex
	tasks map[int]bool
}

func (l *eventLog) note(t int) {
	l.mu.Lock()
	if l.tasks == nil {
		l.tasks = map[int]bool{}
	}
	l.tasks[t] = true
	l.mu.Unlock()
}

func (l *eventLog) drain() map[int]bool {
	l.mu.Lock()
	out := l.tasks
	l.tasks = nil
	l.mu.Unlock()
	return out
}

// scheduler runs Algorithm 2 incrementally. It caches each microtask's top
// worker set (Definition 3) together with the capacity it was computed for
// and the active worker set it was computed over, and on the next run only
// recomputes the sets that a change since then could have altered:
//
//   - tasks on which some worker's estimate moved (the estimator's dirty
//     feed; a base-accuracy change invalidates everything),
//   - tasks whose job state changed (assignment, vote, release — these move
//     capacity or the excluded W^d set),
//   - tasks whose cached set contains a worker who left the active set,
//   - tasks a newly active worker could break into (their accuracy reaches
//     the set's minimum, or the set is not full).
//
// The rules are conservative: a cached set is reused only when the fresh
// computation would provably return the same candidates, so the incremental
// scheme is identical to a from-scratch run (verified in tests). Stale sets
// are recomputed in task order on the calling goroutine.
type scheduler struct {
	cacheEnabled bool

	cands  map[int][]assign.Candidate // task -> unfiltered top worker set
	kPrime map[int]int                // capacity the entry was computed for
	active map[string]bool            // active set the entries were computed over
}

func newScheduler(cacheEnabled bool) *scheduler {
	return &scheduler{cacheEnabled: cacheEnabled}
}

func (s *scheduler) invalidate(t int) {
	delete(s.cands, t)
	delete(s.kPrime, t)
}

// compute runs Algorithm 2 steps 1-2 over the given active workers and
// returns the worker -> task scheme. The caller holds ic.recomputeMu and at
// least the read side of ic.mu; events is the drained change feed of job
// mutations since the previous run.
func (s *scheduler) compute(ic *ICrowd, active []string, events map[int]bool) map[string]int {
	est, job := ic.est, ic.job

	if len(active) == 0 {
		// Nothing to assign and nothing worth keeping: entries would have to
		// be revalidated against an empty active set anyway.
		s.cands, s.kPrime, s.active = map[int][]assign.Candidate{}, map[int]int{}, nil
		est.ResetDirty()
		return map[string]int{}
	}

	activeSet := make(map[string]bool, len(active))
	for _, w := range active {
		activeSet[w] = true
	}

	if !s.cacheEnabled || s.cands == nil || est.DirtyAll() {
		s.cands = map[int][]assign.Candidate{}
		s.kPrime = map[int]int{}
	} else {
		for _, t := range est.DirtyTasks() {
			s.invalidate(t)
		}
		for t := range events {
			s.invalidate(t)
		}
		removed := map[string]bool{}
		for w := range s.active {
			if !activeSet[w] {
				removed[w] = true
			}
		}
		if len(removed) > 0 {
			for t, cs := range s.cands {
				for _, c := range cs {
					if removed[c.Worker] {
						s.invalidate(t)
						break
					}
				}
			}
		}
		for _, w := range active {
			if s.active[w] {
				continue
			}
			for t, cs := range s.cands {
				// A joined worker enters the set when it is not full or when
				// their accuracy reaches its minimum (>= because ties break
				// by worker ID).
				if len(cs) < s.kPrime[t] || est.Accuracy(w, t) >= cs[len(cs)-1].Accuracy {
					s.invalidate(t)
				}
			}
		}
	}
	est.ResetDirty()
	s.active = activeSet

	type staleTask struct{ t, kp int }
	var target []int
	var stale []staleTask
	for _, t := range job.Uncompleted() {
		kp := job.Capacity(t)
		if kp == 0 {
			s.invalidate(t)
			continue
		}
		target = append(target, t)
		if _, ok := s.cands[t]; !ok || s.kPrime[t] != kp {
			stale = append(stale, staleTask{t, kp})
		}
	}

	ic.mStaleTasks.Set(float64(len(stale)))
	if len(stale) > 0 {
		ix := assign.NewIndex(est, active)
		for _, st := range stale {
			t := st.t
			s.cands[t] = ix.TopWorkers(t, st.kp, func(w string) bool {
				return job.Touched(w, t) || !ic.eligible(w, t)
			})
			s.kPrime[t] = st.kp
		}
	}

	var cands []assign.CandidateAssignment
	for _, t := range target {
		top := s.cands[t]
		if len(top) == 0 {
			continue
		}
		// Definition-3 floor: drop below-floor workers from the top set;
		// keep the unfiltered set when nobody clears the floor so the
		// microtask still progresses. Filter into a copy — the cached slice
		// must survive for the next run.
		if ic.cfg.MinAccuracy > 0 {
			filtered := make([]assign.Candidate, 0, len(top))
			for _, c := range top {
				if c.Accuracy >= ic.cfg.MinAccuracy {
					filtered = append(filtered, c)
				}
			}
			if len(filtered) > 0 {
				top = filtered
			}
		}
		cands = append(cands, assign.CandidateAssignment{Task: t, Workers: top})
	}
	scheme := make(map[string]int)
	for _, a := range assign.Greedy(cands) {
		for _, c := range a.Workers {
			scheme[c.Worker] = a.Task
		}
	}
	return scheme
}
