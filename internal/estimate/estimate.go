// Package estimate implements Section 3 of the paper: the observed-accuracy
// model of Eq. (5) and the graph-based similarity estimation of worker
// accuracies (Algorithm 1).
//
// Per Lemma 3, the estimator combines precomputed personalized-PageRank
// basis vectors p_{t_i} linearly with the observed accuracies q^w. On top of
// the paper's raw combination this implementation normalizes by the total
// observation mass reaching each task and shrinks toward the worker's
// warm-up base accuracy:
//
//	p_i^w = (sum_j q_j p_{t_j}(i) + lambda * base_w) / (sum_j p_{t_j}(i) + lambda)
//
// The normalization keeps estimates interpretable as probabilities in [0, 1]
// regardless of how many completed microtasks overlap a region, and the
// shrinkage realizes the paper's rule that "when estimating q^w for the
// first time, we use the average accuracy returned by the Warm-Up component
// as an estimate" — with zero graph evidence, p_i^w is exactly base_w. Both
// numerator and denominator are plain Lemma-3 linear combinations, so the
// O(|completed| * nnz) online cost and the support/influence semantics of
// Section 5 are unchanged. The raw combination remains available via
// RawCombine for verification against the closed form.
package estimate

import (
	"errors"
	"sort"

	"icrowd/internal/aggregate"
	"icrowd/internal/obsv"
	"icrowd/internal/ppr"
	"icrowd/internal/stats"
	"icrowd/internal/task"
)

// DefaultLambda is the shrinkage weight toward the warm-up base accuracy.
const DefaultLambda = 0.5

// DefaultBase is the accuracy prior for workers with no warm-up information.
const DefaultBase = 0.5

// Estimator tracks per-worker observations and produces accuracy estimates.
//
// Evidence is stored task-major: workers are interned to dense indices,
// and each task keeps one Cell per worker with observation mass on it,
// ascending by worker index. Storage is proportional to the evidence, not
// to workers x tasks, and the top-worker index (Section 4.1) reads a
// task's candidates and their estimates from one contiguous column.
//
// The estimator also tracks which workers' answer sets changed since the
// last DirtyReset — the change feed the scheme scheduler (core) uses to
// recombine accuracy vectors only for workers that actually moved, instead
// of recomputing every top worker set per event.
type Estimator struct {
	basis   *ppr.Basis
	lambda  float64
	index   map[string]int32 // worker ID -> interned index into workers
	workers []workerState
	cols    [][]Cell // task -> evidence cells, ascending by Cell.Worker

	// dirtyW are workers whose observations changed since the last reset;
	// dirtyT lists the tasks on which some worker's estimate changed (the
	// union of the basis supports of the newly observed tasks), each once,
	// as flagged in dirtyTask. dirtyAll is set by base-accuracy changes,
	// which move a worker's estimate on every task at once.
	dirtyW    map[string]bool
	dirtyT    []int
	dirtyTask []bool
	dirtyAll  bool
}

type workerState struct {
	id       string
	base     float64
	observed map[int]float64 // task -> q_i^w
}

// Cell is one worker's accumulated evidence on one task: the numerator
// sum_j q_j p_{t_j}(i) and the observation mass sum_j p_{t_j}(i) of the
// estimate.
type Cell struct {
	// Worker is the worker's interned index (see WorkerIndex).
	Worker   int32
	num, den float64
}

// New creates an estimator over the precomputed basis. lambda <= 0 falls
// back to DefaultLambda.
func New(basis *ppr.Basis, lambda float64) *Estimator {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	return &Estimator{
		basis:     basis,
		lambda:    lambda,
		index:     make(map[string]int32),
		cols:      make([][]Cell, basis.N()),
		dirtyW:    make(map[string]bool),
		dirtyTask: make([]bool, basis.N()),
	}
}

// NumTasks returns the number of tasks covered by the basis.
func (e *Estimator) NumTasks() int { return e.basis.N() }

// EnsureWorker registers a worker with the given warm-up base accuracy if
// unknown; it returns whether the worker was newly added.
func (e *Estimator) EnsureWorker(id string, base float64) bool {
	if _, ok := e.index[id]; ok {
		return false
	}
	e.index[id] = int32(len(e.workers))
	e.workers = append(e.workers, workerState{
		id:       id,
		base:     stats.Clamp01(base),
		observed: map[int]float64{},
	})
	e.dirtyW[id] = true
	return true
}

// SetBase updates a worker's warm-up base accuracy. A base change moves the
// worker's estimate on every task, so it marks the whole estimator dirty.
func (e *Estimator) SetBase(id string, base float64) {
	if e.EnsureWorker(id, base) {
		return
	}
	w := &e.workers[e.index[id]]
	if base = stats.Clamp01(base); w.base != base {
		w.base = base
		e.dirtyW[id] = true
		e.dirtyAll = true
	}
}

// Base returns the worker's warm-up base accuracy (DefaultBase if unknown).
func (e *Estimator) Base(id string) float64 {
	if wi, ok := e.index[id]; ok {
		return e.workers[wi].base
	}
	return DefaultBase
}

// Known reports whether the worker has been registered.
func (e *Estimator) Known(id string) bool {
	_, ok := e.index[id]
	return ok
}

// Workers returns all registered worker IDs, sorted.
func (e *Estimator) Workers() []string {
	out := make([]string, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.id
	}
	sort.Strings(out)
	return out
}

// NumWorkers returns the number of registered workers; interned indices
// run from 0 to NumWorkers()-1 in registration order.
func (e *Estimator) NumWorkers() int { return len(e.workers) }

// WorkerIndex returns the interned index of a registered worker.
func (e *Estimator) WorkerIndex(id string) (int32, bool) {
	wi, ok := e.index[id]
	return wi, ok
}

// Column returns the evidence on taskID: one cell per worker with
// observation mass there, ascending by worker index. Workers without a
// cell estimate at their shrunk base (CellAccuracy of an empty cell). The
// slice is shared: read-only, and valid until the next Observe.
func (e *Estimator) Column(taskID int) []Cell {
	if taskID < 0 || taskID >= len(e.cols) {
		return nil
	}
	return e.cols[taskID]
}

// mUnconvergedReads counts observations folded in through a basis vector
// that never converged (or was never solved — a partial basis used without
// SolveMissing). Estimates built on such vectors carry the solver's
// truncation error; the counter is the online-path half of the convergence
// contract whose offline half is icrowd_ppr_unconverged_total.
var mUnconvergedReads = obsv.Default().Counter("icrowd_estimate_unconverged_basis_reads_total",
	"Observations combined through an unconverged or missing PPR basis vector.")

// Observe records observed accuracy q for worker id on a globally completed
// microtask, updating the cached combination incrementally. Re-observing a
// task replaces the previous value: the numerators move by the difference
// and the observation mass stays.
func (e *Estimator) Observe(id string, taskID int, q float64) error {
	if taskID < 0 || taskID >= e.basis.N() {
		return errors.New("estimate: task out of range")
	}
	if !e.basis.SolveResult(taskID).Converged {
		mUnconvergedReads.Inc()
	}
	q = stats.Clamp01(q)
	e.EnsureWorker(id, DefaultBase)
	wi := e.index[id]
	observed := e.workers[wi].observed
	old, seen := observed[taskID]
	observed[taskID] = q
	dq := q
	if seen {
		if dq = q - old; dq == 0 {
			return nil
		}
	}
	if n := e.basis.N(); n > len(e.cols) { // the basis was Extended
		e.cols = append(e.cols, make([][]Cell, n-len(e.cols))...)
		e.dirtyTask = append(e.dirtyTask, make([]bool, n-len(e.dirtyTask))...)
	}
	for t, p := range e.basis.Vec(taskID) {
		c := e.cell(t, wi)
		c.num += dq * p
		if !seen {
			c.den += p
		}
		if !e.dirtyTask[t] {
			e.dirtyTask[t] = true
			e.dirtyT = append(e.dirtyT, t)
		}
	}
	e.dirtyW[id] = true
	return nil
}

// find returns the position of worker wi's cell in col, or where it would
// be inserted, and whether it exists.
func find(col []Cell, wi int32) (int, bool) {
	lo, hi := 0, len(col)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if col[m].Worker < wi {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(col) && col[lo].Worker == wi
}

// cell returns worker wi's cell on task t, inserting an empty one in
// worker order if there is none.
func (e *Estimator) cell(t int, wi int32) *Cell {
	col := e.cols[t]
	i, ok := find(col, wi)
	if !ok {
		col = append(col, Cell{})
		copy(col[i+1:], col[i:])
		col[i] = Cell{Worker: wi}
		e.cols[t] = col
	}
	return &col[i]
}

// Evidence returns the cell of the worker with interned index wi on taskID,
// or an empty cell when the worker has no evidence there.
func (e *Estimator) Evidence(wi int32, taskID int) Cell {
	col := e.Column(taskID)
	if i, ok := find(col, wi); ok {
		return col[i]
	}
	return Cell{Worker: wi}
}

// DirtyWorkers returns the workers whose answer sets (or bases) changed
// since the last ResetDirty, sorted.
func (e *Estimator) DirtyWorkers() []string {
	out := make([]string, 0, len(e.dirtyW))
	for id := range e.dirtyW {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// DirtyTasks returns the tasks on which at least one worker's estimate
// changed since the last ResetDirty, each once, in the order they became
// dirty. When DirtyAll reports true the set is not exhaustive — every task
// must be considered stale. The slice is shared: read-only, and valid until
// the next Observe or ResetDirty.
func (e *Estimator) DirtyTasks() []int { return e.dirtyT }

// DirtyAll reports whether a change invalidated every task at once (a
// worker's base accuracy moved after warm-up).
func (e *Estimator) DirtyAll() bool { return e.dirtyAll }

// Dirty-feed gauges on the process default registry, sampled whenever a
// consumer drains the feed: how much estimation churn each scheduler pass
// absorbed.
var (
	mDirtyWorkers = obsv.Default().Gauge("icrowd_estimate_dirty_workers",
		"Workers whose estimates changed in the drained dirty feed.")
	mDirtyTasks = obsv.Default().Gauge("icrowd_estimate_dirty_tasks",
		"Tasks invalidated in the drained dirty feed.")
)

// ResetDirty clears the change feed; the next DirtyWorkers/DirtyTasks
// report changes relative to this point.
func (e *Estimator) ResetDirty() {
	mDirtyWorkers.Set(float64(len(e.dirtyW)))
	mDirtyTasks.Set(float64(len(e.dirtyT)))
	clear(e.dirtyW)
	for _, t := range e.dirtyT {
		e.dirtyTask[t] = false
	}
	e.dirtyT = e.dirtyT[:0]
	e.dirtyAll = false
}

// ObserveQualification records a qualification outcome: q_i^w is 1 for a
// correct answer and 0 otherwise (Section 3.2, trivial case).
func (e *Estimator) ObserveQualification(id string, taskID int, correct bool) error {
	q := 0.0
	if correct {
		q = 1.0
	}
	return e.Observe(id, taskID, q)
}

// ObservedAccuracy evaluates Eq. (5): the probability that a worker's answer
// on a consensus-completed microtask is correct. pAgree are the current
// accuracy estimates of the workers who voted with the consensus (W1),
// pDisagree of those who voted against it (W2), and agrees tells whether the
// worker in question voted with the consensus.
func ObservedAccuracy(pAgree, pDisagree []float64, agrees bool) float64 {
	p1, p1bar := productPair(pAgree)
	p2, p2bar := productPair(pDisagree)
	num := p1 * p2bar // consensus correct
	alt := p1bar * p2 // consensus incorrect
	den := num + alt
	if den == 0 {
		return 0.5
	}
	if agrees {
		return num / den
	}
	return alt / den
}

func productPair(ps []float64) (prod, prodBar float64) {
	prod, prodBar = 1, 1
	for _, p := range ps {
		// Clamp away from {0,1}: a single certain worker must not zero out
		// the whole product (the paper's estimates never reach 0/1 either,
		// as they come from the smoothed graph model).
		const eps = 0.02
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		prod *= p
		prodBar *= 1 - p
	}
	return prod, prodBar
}

// ObserveConsensus applies Eq. (5) to every voter of a microtask that just
// reached the consensus answer, recording each voter's observed accuracy.
func (e *Estimator) ObserveConsensus(taskID int, votes []aggregate.Vote, consensus task.Answer) error {
	if consensus != task.Yes && consensus != task.No {
		return errors.New("estimate: consensus must be a binary answer")
	}
	var pAgree, pDisagree []float64
	for _, v := range votes {
		p := e.Accuracy(v.Worker, taskID)
		if v.Answer == consensus {
			pAgree = append(pAgree, p)
		} else {
			pDisagree = append(pDisagree, p)
		}
	}
	for _, v := range votes {
		q := ObservedAccuracy(pAgree, pDisagree, v.Answer == consensus)
		if err := e.Observe(v.Worker, taskID, q); err != nil {
			return err
		}
	}
	return nil
}

// Accuracy returns the estimated accuracy p_i^w of worker id on taskID.
// Unregistered workers estimate at DefaultBase.
func (e *Estimator) Accuracy(id string, taskID int) float64 {
	wi, ok := e.index[id]
	if !ok {
		return DefaultBase
	}
	return e.CellAccuracy(e.Evidence(wi, taskID))
}

// CellAccuracy returns the estimate p_i^w that cell c of a Column stands
// for; Cell{Worker: wi} is the estimate of a worker without evidence.
func (e *Estimator) CellAccuracy(c Cell) float64 {
	return stats.Clamp01((c.num + e.lambda*e.workers[c.Worker].base) / (c.den + e.lambda))
}

// Mass returns the total observation mass sum_j p_{t_j}(taskID) that worker
// id's completed microtasks project onto taskID — the graph-evidence weight
// behind the estimate.
func (e *Estimator) Mass(id string, taskID int) float64 {
	if wi, ok := e.index[id]; ok {
		return e.Evidence(wi, taskID).den
	}
	return 0
}

// EffectiveCounts converts the observation mass on taskID into effective
// correct/incorrect counts (N1, N0) for the Step-3 Beta-variance test. The
// restart probability alpha/(1+alpha) is the mass one observation deposits
// on itself, so dividing by it calibrates "one completed microtask at the
// seed" to one effective count.
func (e *Estimator) EffectiveCounts(id string, taskID int) (n1, n0 float64) {
	wi, ok := e.index[id]
	if !ok {
		return 0, 0
	}
	return e.cellCounts(e.Evidence(wi, taskID))
}

func (e *Estimator) cellCounts(c Cell) (n1, n0 float64) {
	o := e.basis.Options()
	restart := o.Alpha / (1 + o.Alpha)
	num := c.num / restart
	den := c.den / restart
	if num < 0 {
		num = 0
	}
	if num > den {
		num = den
	}
	return num, den - num
}

// Uncertainty returns the Step-3 estimation variance for worker id on
// taskID: the variance of Beta(N1+1, N0+1) over the effective counts.
func (e *Estimator) Uncertainty(id string, taskID int) float64 {
	n1, n0 := e.EffectiveCounts(id, taskID)
	return stats.UncertaintyVariance(n1, n0)
}

// CellUncertainty is Uncertainty for the evidence in cell c (see Evidence;
// the empty Cell{} stands for a worker without evidence).
func (e *Estimator) CellUncertainty(c Cell) float64 {
	return stats.UncertaintyVariance(e.cellCounts(c))
}

// Observed returns a copy of the worker's observed accuracies q^w.
func (e *Estimator) Observed(id string) map[int]float64 {
	wi, ok := e.index[id]
	if !ok {
		return nil
	}
	out := make(map[int]float64, len(e.workers[wi].observed))
	for k, v := range e.workers[wi].observed {
		out[k] = v
	}
	return out
}

// HasObserved reports whether worker id has an observation on taskID.
func (e *Estimator) HasObserved(id string, taskID int) bool {
	wi, ok := e.index[id]
	if !ok {
		return false
	}
	_, ok = e.workers[wi].observed[taskID]
	return ok
}

// BasisResult exposes how the basis solve for taskID terminated, so
// consumers of estimates can tell a converged combination from one built on
// truncated vectors.
func (e *Estimator) BasisResult(taskID int) ppr.Result {
	return e.basis.SolveResult(taskID)
}

// RawCombine returns the paper's unnormalized Lemma-3 combination
// sum_j q_j p_{t_j} for worker id, for verification against ppr.DenseSolve.
func (e *Estimator) RawCombine(id string) map[int]float64 {
	wi, ok := e.index[id]
	if !ok {
		return nil
	}
	return e.basis.Combine(e.workers[wi].observed)
}
