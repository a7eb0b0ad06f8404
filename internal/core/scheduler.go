package core

import (
	"slices"
	"sync"

	"icrowd/internal/assign"
	"icrowd/internal/estimate"
)

// eventLog collects the IDs of microtasks whose job state (capacity, votes,
// touched set) changed since the scheduler last consumed the feed, each
// once. It is a leaf lock: never held across another acquisition.
type eventLog struct {
	mu    sync.Mutex
	noted []bool // task -> listed in tasks
	tasks []int
}

func (l *eventLog) note(t int) {
	l.mu.Lock()
	if !l.noted[t] {
		l.noted[t] = true
		l.tasks = append(l.tasks, t)
	}
	l.mu.Unlock()
}

// drain appends the noted tasks to dst and empties the feed.
func (l *eventLog) drain(dst []int) []int {
	l.mu.Lock()
	for _, t := range l.tasks {
		l.noted[t] = false
	}
	dst = append(dst, l.tasks...)
	l.tasks = l.tasks[:0]
	l.mu.Unlock()
	return dst
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
//
// All state is task-indexed and every buffer is reused across runs; the
// caller holds ic.recomputeMu, which guards it.
type scheduler struct {
	cacheEnabled bool

	// Per task: the cached best-first top worker set, the capacity it was
	// computed for (0: no entry), and the length of the prefix Greedy sees
	// — the workers clearing the Definition-3 floor, or the whole set when
	// nobody does.
	top    [][]assign.Candidate
	kPrime []int
	floor  []int
	active []string // sorted active set the entries were computed over

	roster  []rosterEntry // ic.roster snapshotted for the next run
	next    []string      // the next run's active set, sorted
	jobIdx  []int32       // active position -> job worker index (-1: none)
	removed []string      // workers who left the active set, sorted
	events  []int
	ix      assign.Index
	cands   []assign.CandidateAssignment
}

type rosterEntry struct {
	id   string
	info *workerInfo
}

func newScheduler(cacheEnabled bool, numTasks int) *scheduler {
	return &scheduler{
		cacheEnabled: cacheEnabled,
		top:          make([][]assign.Candidate, numTasks),
		kPrime:       make([]int, numTasks),
		floor:        make([]int, numTasks),
	}
}

// compute runs Algorithm 2 steps 1-2 over the given active workers (sorted)
// and returns the worker -> task scheme. The caller holds ic.recomputeMu
// and at least the read side of ic.mu.
func (s *scheduler) compute(ic *ICrowd, active []string) map[string]int {
	est, job := ic.est, ic.job
	s.events = ic.events.drain(s.events[:0])

	if !s.cacheEnabled || len(s.active) == 0 || len(active) == 0 || est.DirtyAll() {
		clear(s.kPrime)
	} else {
		for _, t := range est.DirtyTasks() {
			s.kPrime[t] = 0
		}
		for _, t := range s.events {
			s.kPrime[t] = 0
		}
		s.diffActive(ic, active)
	}
	est.ResetDirty()
	s.active = append(s.active[:0], active...)
	if len(active) == 0 {
		// Nothing to assign and nothing worth keeping: entries would have to
		// be revalidated against an empty active set anyway.
		return map[string]int{}
	}

	var cur int // the task exclude tests W^d and eligibility on
	exclude := func(pos int) bool {
		if wi := s.jobIdx[pos]; wi >= 0 && job.TouchedIndex(wi, cur) {
			return true
		}
		return !ic.eligible(active[pos], cur)
	}
	stale := 0
	s.cands = s.cands[:0]
	for t := range s.kPrime {
		kp := job.Capacity(t) // 0 for completed tasks
		if kp == 0 {
			s.kPrime[t] = 0
			continue
		}
		if s.kPrime[t] != kp {
			if stale == 0 {
				s.index(ic, active)
			}
			stale++
			cur = t
			top := s.ix.TopWorkers(s.top[t], t, kp, exclude)
			s.top[t], s.kPrime[t], s.floor[t] = top, kp, floorLen(top, ic.cfg.MinAccuracy)
		}
		if f := s.floor[t]; f > 0 {
			s.cands = append(s.cands, assign.CandidateAssignment{Task: t, Workers: s.top[t][:f]})
		}
	}
	ic.mStaleTasks.Set(float64(stale))

	scheme := make(map[string]int)
	for _, a := range assign.Greedy(s.cands) {
		for _, c := range a.Workers {
			scheme[c.Worker] = a.Task
		}
	}
	return scheme
}

// diffActive invalidates the cached sets the change from s.active to
// active could alter: sets holding a worker who left, and sets a joining
// worker could enter — when the set is not full or their accuracy reaches
// its minimum (>= because ties break by worker ID).
func (s *scheduler) diffActive(ic *ICrowd, active []string) {
	s.removed = s.removed[:0]
	for i, j := 0, 0; i < len(s.active) || j < len(active); {
		switch {
		case j == len(active) || i < len(s.active) && s.active[i] < active[j]:
			s.removed = append(s.removed, s.active[i])
			i++
		case i == len(s.active) || active[j] < s.active[i]:
			s.joined(ic, active[j])
			j++
		default:
			i++
			j++
		}
	}
	if len(s.removed) == 0 {
		return
	}
	for t, kp := range s.kPrime {
		if kp == 0 {
			continue
		}
		for _, c := range s.top[t] {
			if _, gone := slices.BinarySearch(s.removed, c.Worker); gone {
				s.kPrime[t] = 0
				break
			}
		}
	}
}

func (s *scheduler) joined(ic *ICrowd, w string) {
	est := ic.est
	wi, known := est.WorkerIndex(w)
	for t, kp := range s.kPrime {
		if kp == 0 {
			continue
		}
		cs := s.top[t]
		if len(cs) < kp {
			s.kPrime[t] = 0
			continue
		}
		acc := estimate.DefaultBase // what est.Accuracy gives an unknown worker
		if known {
			acc = est.CellAccuracy(est.Evidence(wi, t))
		}
		if acc >= cs[len(cs)-1].Accuracy {
			s.kPrime[t] = 0
		}
	}
}

// index rebuilds the top-worker index and the job indices exclude reads
// over the run's active set.
func (s *scheduler) index(ic *ICrowd, active []string) {
	s.ix.Reset(ic.est, active)
	s.jobIdx = s.jobIdx[:0]
	for _, w := range active {
		wi, ok := ic.job.WorkerIndex(w)
		if !ok {
			wi = -1
		}
		s.jobIdx = append(s.jobIdx, wi)
	}
}

// floorLen returns the length of the Definition-3 floor-filtered prefix of
// a best-first top set: the workers whose accuracy reaches minAcc, or the
// whole set when nobody does, so the microtask still progresses.
func floorLen(top []assign.Candidate, minAcc float64) int {
	n := 0
	for n < len(top) && top[n].Accuracy >= minAcc {
		n++
	}
	if n == 0 {
		return len(top)
	}
	return n
}
