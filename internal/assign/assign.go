// Package assign implements the adaptive task-assignment machinery of
// Section 4: top-worker-set computation (Definition 3), the greedy
// approximation of the NP-hard optimal microtask assignment (Algorithm 3),
// an exact optimal solver used to measure the greedy approximation error
// (Appendix D.4 / Table 5), and the Step-3 worker performance test.
package assign

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"

	"icrowd/internal/estimate"
)

// Candidate is a worker with their estimated accuracy on some task.
type Candidate struct {
	// Worker identifies the worker.
	Worker string
	// Accuracy is the estimated p_i^w.
	Accuracy float64
}

// CandidateAssignment pairs a microtask with its top worker set
// (an element of the candidate set A^c in Algorithm 3).
type CandidateAssignment struct {
	// Task is the microtask ID.
	Task int
	// Workers is the top worker set, ordered by descending accuracy.
	Workers []Candidate
}

// SumAccuracy returns the Definition-4 objective contribution
// sum_{w in W(t)} p_t^w.
func (a CandidateAssignment) SumAccuracy() float64 {
	var s float64
	for _, c := range a.Workers {
		s += c.Accuracy
	}
	return s
}

// AvgAccuracy returns the Algorithm-3 selection score
// sum_{w in W(t)} p_t^w / |W(t)|; 0 for an empty set.
func (a CandidateAssignment) AvgAccuracy() float64 {
	if len(a.Workers) == 0 {
		return 0
	}
	return a.SumAccuracy() / float64(len(a.Workers))
}

// TopWorkers computes the top worker set of Definition 3: the k workers
// among eligible with the highest estimated accuracy on taskID. Ties break
// by worker ID for determinism. It is the O(|W|) reference used by
// Algorithm 2 Step 1.
func TopWorkers(e *estimate.Estimator, taskID, k int, eligible []string) []Candidate {
	if k <= 0 {
		return nil
	}
	cands := make([]Candidate, 0, len(eligible))
	for _, w := range eligible {
		cands = append(cands, Candidate{Worker: w, Accuracy: e.Accuracy(w, taskID)})
	}
	sortCandidates(cands)
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands
}

func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Accuracy != cs[j].Accuracy {
			return cs[i].Accuracy > cs[j].Accuracy
		}
		return cs[i].Worker < cs[j].Worker
	})
}

// Index accelerates top-worker computation ("effective index structures",
// Section 4.1): workers without graph evidence on a task all estimate at
// their shrunk base accuracy, so the index keeps the active workers sorted
// by base accuracy once and, per task, only evaluates the (few) workers in
// the estimator's evidence column plus a prefix of the base order.
//
// The index is a snapshot of the estimator: build it after the last
// estimator change and use it before the next. TopWorkers only reads it.
type Index struct {
	est    *estimate.Estimator
	byBase []member
	// slot maps an estimator worker index to its position in byBase, or -1
	// for a worker outside the active set.
	slot []int32
}

// member is an active worker: its position in the active slice, estimator
// index (-1 when the estimator has never seen it), base accuracy and
// estimate on a task without evidence.
type member struct {
	id    string
	pos   int
	wi    int32
	base  float64
	prior float64
}

// NewIndex builds an index over the given active workers. It only reads
// the estimator: active workers it has never seen estimate at DefaultBase
// everywhere.
func NewIndex(e *estimate.Estimator, active []string) *Index {
	ix := &Index{}
	ix.Reset(e, active)
	return ix
}

// Reset rebuilds the index over the given active workers, reusing its
// buffers; it is NewIndex for a caller that rebuilds an index every round.
func (ix *Index) Reset(e *estimate.Estimator, active []string) {
	ix.est = e
	ix.byBase = slices.Grow(ix.byBase[:0], len(active))[:len(active)]
	ix.slot = slices.Grow(ix.slot[:0], e.NumWorkers())[:e.NumWorkers()]
	for i, w := range active {
		m := member{id: w, pos: i, wi: -1, base: estimate.DefaultBase, prior: estimate.DefaultBase}
		if wi, ok := e.WorkerIndex(w); ok {
			m.wi, m.base, m.prior = wi, e.Base(w), e.CellAccuracy(estimate.Cell{Worker: wi})
		}
		ix.byBase[i] = m
	}
	slices.SortFunc(ix.byBase, func(a, b member) int {
		if c := cmp.Compare(b.base, a.base); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	for i := range ix.slot {
		ix.slot[i] = -1
	}
	for pos, m := range ix.byBase {
		if m.wi >= 0 {
			ix.slot[m.wi] = int32(pos)
		}
	}
}

// NumActive returns the number of workers in the index.
func (ix *Index) NumActive() int { return len(ix.byBase) }

// TopWorkers returns the top-k eligible workers for taskID, ordered like
// the reference TopWorkers, in dst's backing array when it holds k (pass
// nil for a fresh slice). exclude reports, by position in the active slice
// the index was built over, workers that must be skipped (the
// already-assigned set W^d(t_i)); it is consulted only for a worker that
// would enter the set. The result matches the reference TopWorkers over
// the same active set because workers without evidence on the task sit
// exactly at their prior, which never increases down the base order.
func (ix *Index) TopWorkers(dst []Candidate, taskID, k int, exclude func(pos int) bool) []Candidate {
	if k <= 0 {
		return nil
	}
	top := dst[:0]
	if cap(top) < k {
		top = make([]Candidate, 0, k)
	}
	// inCol marks, by base-order position, the members walked in the
	// column; a stack buffer covers up to 256 active workers.
	var buf [4]uint64
	inCol := buf[:]
	if n := (len(ix.byBase) + 63) / 64; n > len(buf) {
		inCol = make([]uint64, n)
	}
	for _, c := range ix.est.Column(taskID) {
		if int(c.Worker) >= len(ix.slot) || ix.slot[c.Worker] < 0 {
			continue
		}
		pos := ix.slot[c.Worker]
		inCol[pos/64] |= 1 << (pos % 64)
		m := &ix.byBase[pos]
		top = offer(top, k, Candidate{Worker: m.id, Accuracy: ix.est.CellAccuracy(c)}, m.pos, exclude)
	}
	// Workers without evidence in base order: once one cannot enter the
	// full set, no later one can, as their priors are no higher and equal
	// priors sort by worker ID.
	for i := range ix.byBase {
		if inCol[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		m := &ix.byBase[i]
		c := Candidate{Worker: m.id, Accuracy: m.prior}
		if len(top) == k && !ranksBefore(c, top[k-1]) {
			break
		}
		top = offer(top, k, c, m.pos, exclude)
	}
	return top
}

// ranksBefore is the top-worker order: higher accuracy first, ties by
// worker ID.
func ranksBefore(a, b Candidate) bool {
	if a.Accuracy != b.Accuracy {
		return a.Accuracy > b.Accuracy
	}
	return a.Worker < b.Worker
}

// offer inserts c, the worker at position pos of the active slice, into
// top, a best-first set of at most k candidates, unless c ranks after all
// k of them or exclude rejects it.
func offer(top []Candidate, k int, c Candidate, pos int, exclude func(int) bool) []Candidate {
	if len(top) == k && !ranksBefore(c, top[k-1]) {
		return top
	}
	if exclude != nil && exclude(pos) {
		return top
	}
	if len(top) < k {
		top = append(top, c)
	}
	i := len(top) - 1
	for ; i > 0 && ranksBefore(c, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}

// Greedy implements Algorithm 3: take the candidate assignments in
// descending order of average worker accuracy (ties by task) and keep each
// one that shares no worker with an assignment already kept. One sort
// replaces the paper's repeated O(|T|) selection scans; the scheme is
// exactly the paper's O(|T|^2) formulation (verified against
// GreedyReference in tests).
func Greedy(cands []CandidateAssignment) []CandidateAssignment {
	return greedyBy(cands, func(a CandidateAssignment) (float64, bool) { return a.AvgAccuracy(), true })
}

// greedyBy runs the Algorithm-3 selection over the candidates with a
// worker set that score accepts, best score first; equal scores go by
// task, then by input position.
func greedyBy(cands []CandidateAssignment, score func(CandidateAssignment) (float64, bool)) []CandidateAssignment {
	type ranked struct {
		score float64
		i     int
	}
	order := make([]ranked, 0, len(cands))
	for i, c := range cands {
		if len(c.Workers) == 0 {
			continue
		}
		if s, ok := score(c); ok {
			order = append(order, ranked{s, i})
		}
	}
	slices.SortFunc(order, func(a, b ranked) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		if c := cmp.Compare(cands[a.i].Task, cands[b.i].Task); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	used := map[string]bool{}
	var out []CandidateAssignment
	for _, r := range order {
		a := cands[r.i]
		conflict := false
		for _, c := range a.Workers {
			if used[c.Worker] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		for _, c := range a.Workers {
			used[c.Worker] = true
		}
		out = append(out, a)
	}
	return out
}

// GreedyReference is the paper's literal O(|T|^2) Algorithm 3, kept as the
// oracle the fast Greedy is tested against.
func GreedyReference(cands []CandidateAssignment) []CandidateAssignment {
	remaining := make([]CandidateAssignment, 0, len(cands))
	for _, c := range cands {
		if len(c.Workers) > 0 {
			remaining = append(remaining, c)
		}
	}
	var out []CandidateAssignment
	for len(remaining) > 0 {
		best := 0
		for i := 1; i < len(remaining); i++ {
			si, sb := remaining[i].AvgAccuracy(), remaining[best].AvgAccuracy()
			if si > sb || (si == sb && remaining[i].Task < remaining[best].Task) {
				best = i
			}
		}
		chosen := remaining[best]
		out = append(out, chosen)
		usedW := map[string]bool{}
		for _, c := range chosen.Workers {
			usedW[c.Worker] = true
		}
		next := remaining[:0]
		for _, c := range remaining {
			overlap := false
			for _, w := range c.Workers {
				if usedW[w.Worker] {
					overlap = true
					break
				}
			}
			if !overlap {
				next = append(next, c)
			}
		}
		remaining = next
	}
	return out
}

// TotalValue returns the Definition-4 objective of a scheme: the sum over
// chosen assignments of their worker-accuracy sums.
func TotalValue(scheme []CandidateAssignment) float64 {
	var s float64
	for _, a := range scheme {
		s += a.SumAccuracy()
	}
	return s
}

// ErrTooManyWorkers reports that the exact solver's bitmask capacity is
// exceeded.
var ErrTooManyWorkers = errors.New("assign: exact solver supports at most 30 distinct workers")

// Optimal solves optimal microtask assignment exactly by dynamic programming
// over worker subsets (weighted set packing). The paper's enumeration could
// not finish beyond 7 active workers within 30 minutes; the DP is
// O(|T| * 2^|W|) and exact for |W| <= 30. Used for Table 5.
func Optimal(cands []CandidateAssignment) (float64, []CandidateAssignment, error) {
	workerID := map[string]int{}
	for _, c := range cands {
		for _, w := range c.Workers {
			if _, ok := workerID[w.Worker]; !ok {
				workerID[w.Worker] = len(workerID)
			}
		}
	}
	nw := len(workerID)
	if nw > 30 {
		return 0, nil, ErrTooManyWorkers
	}
	type entry struct {
		mask  uint32
		value float64
	}
	items := make([]entry, 0, len(cands))
	kept := make([]CandidateAssignment, 0, len(cands))
	for _, c := range cands {
		if len(c.Workers) == 0 {
			continue
		}
		var m uint32
		for _, w := range c.Workers {
			m |= 1 << uint(workerID[w.Worker])
		}
		items = append(items, entry{mask: m, value: c.SumAccuracy()})
		kept = append(kept, c)
	}
	size := 1 << uint(nw)
	best := make([]float64, size)
	choice := make([]int, size) // item index that achieved best[mask], -1 none
	from := make([]uint32, size)
	for i := range choice {
		choice[i] = -1
	}
	for i, it := range items {
		// Iterate masks descending so each item is used at most once.
		for m := size - 1; m >= 0; m-- {
			um := uint32(m)
			if um&it.mask != 0 {
				continue
			}
			nm := um | it.mask
			if v := best[m] + it.value; v > best[nm]+1e-15 {
				best[nm] = v
				choice[nm] = i
				from[nm] = um
			}
		}
	}
	// Find the best mask and reconstruct.
	bestMask := 0
	for m := 1; m < size; m++ {
		if best[m] > best[bestMask] {
			bestMask = m
		}
	}
	var chosen []CandidateAssignment
	for m := uint32(bestMask); choice[m] >= 0; m = from[m] {
		chosen = append(chosen, kept[choice[m]])
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].Task < chosen[j].Task })
	return best[bestMask], chosen, nil
}

// OptimalEnumerate is the naive exponential enumeration of all feasible
// schemes (the algorithm the paper timed out beyond 7 workers). It
// cross-checks Optimal in tests; do not call it with many candidates.
func OptimalEnumerate(cands []CandidateAssignment) float64 {
	var rec func(i int, used map[string]bool) float64
	rec = func(i int, used map[string]bool) float64 {
		if i == len(cands) {
			return 0
		}
		// Skip candidate i.
		best := rec(i+1, used)
		// Take candidate i if disjoint.
		c := cands[i]
		if len(c.Workers) == 0 {
			return best
		}
		for _, w := range c.Workers {
			if used[w.Worker] {
				return best
			}
		}
		for _, w := range c.Workers {
			used[w.Worker] = true
		}
		if v := c.SumAccuracy() + rec(i+1, used); v > best {
			best = v
		}
		for _, w := range c.Workers {
			delete(used, w.Worker)
		}
		return best
	}
	return rec(0, map[string]bool{})
}

// TestTask describes a microtask eligible for a Step-3 performance test.
type TestTask struct {
	// Task is the microtask ID.
	Task int
	// AssignedAccuracies are the estimated accuracies of the workers
	// already assigned to the task (W^d).
	AssignedAccuracies []float64
}

// PerformanceTest selects the Step-3 test microtask for a worker left
// without an assignment: it maximizes
//
//	uncertainty(w, t) * quality(W^d(t)),
//
// preferring tasks whose region the estimator knows least about for this
// worker (Beta-distribution variance over effective counts) and whose
// existing worker set is accurate enough to make the test reliable.
// Returns (-1, false) when eligible is empty.
func PerformanceTest(e *estimate.Estimator, worker string, eligible []TestTask) (int, bool) {
	bestTask, bestScore := -1, math.Inf(-1)
	for _, tt := range eligible {
		quality := 0.5
		if len(tt.AssignedAccuracies) > 0 {
			var s float64
			for _, a := range tt.AssignedAccuracies {
				s += a
			}
			quality = s / float64(len(tt.AssignedAccuracies))
		}
		score := e.Uncertainty(worker, tt.Task) * quality
		if score > bestScore || (score == bestScore && tt.Task < bestTask) {
			bestScore = score
			bestTask = tt.Task
		}
	}
	return bestTask, bestTask >= 0
}
