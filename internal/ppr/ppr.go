// Package ppr implements the personalized-PageRank machinery of Section 3.1:
// the iterative solver for Eq. (4),
//
//	p = 1/(1+alpha) * S' p + alpha/(1+alpha) * q,
//
// whose fixed point is the closed form of Lemma 1, a sparse localized solver
// used to precompute the per-task basis vectors p_{t_i}, and the linearity
// combination of Lemma 3 that makes online estimation O(|completed|·nnz).
package ppr

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/simgraph"
)

// Solver-pool instruments on the process default registry: Precompute and
// PrecomputePartial are offline batch work, so the per-process view is the
// useful one and no registry needs threading through the API.
var (
	mSeedsSolved = obsv.Default().Counter("icrowd_ppr_seeds_solved_total",
		"PPR basis vectors solved (Precompute, PrecomputePartial and SolveMissing).")
	mPoolWorkers = obsv.Default().Gauge("icrowd_ppr_pool_workers",
		"Solver-pool fan-out of the last basis precomputation.")
	mSolveLat = obsv.Default().Histogram("icrowd_ppr_solve_batch_seconds",
		"Wall time of whole basis solve batches.", nil)
	mUnconverged = obsv.Default().Counter("icrowd_ppr_unconverged_total",
		"PPR solves that exhausted MaxIter before draining the residual to Tol.")
)

// Result reports how a solve terminated. A false Converged means MaxIter
// was exhausted while residual mass above Tol was still undistributed: the
// returned vector is a truncation, not the fixed point, and the solver has
// incremented icrowd_ppr_unconverged_total. Residual is the L1 mass still
// in flight at exit (for the dense solver, the last iteration's L1 step
// size), Iters the number of iterations performed.
type Result struct {
	Converged bool
	Residual  float64
	Iters     int
}

// Options tunes the solvers.
type Options struct {
	// Alpha is the balance parameter of Eq. (2); must be > 0.
	Alpha float64
	// Tol is the L1 convergence tolerance of the iterative solvers.
	Tol float64
	// MaxIter caps the number of iterations.
	MaxIter int
	// DropTol truncates sparse-solver entries below this magnitude to keep
	// the basis vectors local; 0 keeps everything the iteration touched.
	DropTol float64
	// Workers bounds the seed-solve fan-out of Precompute and
	// PrecomputePartial: 0 uses GOMAXPROCS, 1 forces the sequential path.
	// Every seed is solved independently and merged at its own index, so the
	// result is bit-identical for any worker count.
	Workers int
}

// DefaultOptions returns the solver configuration used across experiments:
// the paper's default alpha = 1.0 (Appendix D.2) with tight tolerances.
func DefaultOptions() Options {
	return Options{Alpha: 1.0, Tol: 1e-9, MaxIter: 200, DropTol: 1e-7}
}

func (o Options) validate() error {
	if o.Alpha <= 0 {
		return errors.New("ppr: alpha must be positive")
	}
	if o.MaxIter < 1 {
		return errors.New("ppr: MaxIter must be >= 1")
	}
	if o.Tol < 0 || o.DropTol < 0 {
		return errors.New("ppr: negative tolerance")
	}
	if o.Workers < 0 {
		return errors.New("ppr: Workers must be >= 0")
	}
	return nil
}

// workerCount resolves Options.Workers against the job size.
func (o Options) workerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DenseSolve iterates Eq. (4) for an arbitrary observed vector q (length
// g.N()) and returns the estimated accuracy vector p together with how the
// iteration terminated. Callers that need the true fixed point must check
// Result.Converged: with MaxIter exhausted the vector is only the best
// iterate reached.
func DenseSolve(g *simgraph.Graph, q []float64, o Options) ([]float64, Result, error) {
	if err := o.validate(); err != nil {
		return nil, Result{}, err
	}
	if len(q) != g.N() {
		return nil, Result{}, errors.New("ppr: q length mismatch")
	}
	c := 1 / (1 + o.Alpha)
	restart := o.Alpha / (1 + o.Alpha)
	p := make([]float64, g.N())
	copy(p, q) // paper: "we set vector p as the observed one q initially"
	next := make([]float64, g.N())
	var res Result
	for res.Iters < o.MaxIter {
		res.Iters++
		var delta float64
		for i := 0; i < g.N(); i++ {
			var acc float64
			g.Neighbors(i, func(j int, _, norm float64) {
				acc += norm * p[j]
			})
			v := c*acc + restart*q[i]
			d := v - p[i]
			if d < 0 {
				d = -d
			}
			delta += d
			next[i] = v
		}
		p, next = next, p
		res.Residual = delta
		if delta <= o.Tol {
			res.Converged = true
			break
		}
	}
	if !res.Converged {
		mUnconverged.Inc()
	}
	return p, res, nil
}

// SparseSolve computes the basis vector p_{t_seed}: the fixed point of
// Eq. (4) when q = e_seed. It expands the truncated Neumann series
// restart * sum_k (c S')^k e_seed with a sparse frontier, so the cost is
// proportional to the seed's graph neighborhood rather than to N.
//
// Frontier nodes are expanded in ascending ID order, fixing the
// floating-point accumulation order: the result is bit-identical across
// runs. SparseSolve is the reference implementation the allocation-lean
// push solver (Solver.Solve) is pinned bit-exact against; the precompute
// hot path uses the push solver and its batched form, this one exists for
// verification.
func SparseSolve(g *simgraph.Graph, seed int, o Options) (map[int]float64, Result, error) {
	if err := o.validate(); err != nil {
		return nil, Result{}, err
	}
	if seed < 0 || seed >= g.N() {
		return nil, Result{}, errors.New("ppr: seed out of range")
	}
	c := 1 / (1 + o.Alpha)
	restart := o.Alpha / (1 + o.Alpha)

	p := map[int]float64{seed: restart}
	frontier := map[int]float64{seed: restart}
	var order []int
	res := Result{Residual: restart}
	for res.Iters < o.MaxIter && len(frontier) > 0 {
		res.Iters++
		next := make(map[int]float64, len(frontier)*2)
		order = order[:0]
		for i := range frontier {
			order = append(order, i)
		}
		sort.Ints(order)
		for _, i := range order {
			x := frontier[i]
			g.Neighbors(i, func(j int, _, norm float64) {
				next[j] += c * norm * x
			})
		}
		order = order[:0]
		for j := range next {
			order = append(order, j)
		}
		sort.Ints(order)
		var mass float64
		for _, j := range order {
			x := next[j]
			if x < o.DropTol && -x < o.DropTol {
				delete(next, j)
				continue
			}
			p[j] += x
			if x < 0 {
				mass -= x
			} else {
				mass += x
			}
		}
		res.Residual = mass
		if mass <= o.Tol {
			res.Converged = true
			break
		}
		frontier = next
	}
	if !res.Converged {
		mUnconverged.Inc()
	}
	return p, res, nil
}

// Basis holds the precomputed vectors p_{t_i} for every task (the offline
// phase of Algorithm 1), together with each solve's termination Result.
// It may be partial (nil vectors for never-solved seeds) and grown
// incrementally with SolveMissing/Extend.
type Basis struct {
	opts Options
	vecs []map[int]float64
	res  []Result

	// solver is the cached scratch for incremental SolveMissing calls, so
	// the steady-state delta path (one newly observed seed at a time)
	// allocates only its result map. Valid only for solverGraph.
	solver      *Solver
	solverGraph *simgraph.Graph
}

// Precompute solves the basis vector of every task across a bounded worker
// pool (offline step of Algorithm 1 / Algorithm 4 line 2-3). On graphs of
// up to maxBatchedN tasks the seeds of each connected component are solved
// eight per CSR walk (batchSolver). Options.Workers sizes the pool; the
// output is bit-identical for any pool size and to one Solver.Solve per
// seed.
func Precompute(g *simgraph.Graph, o Options) (*Basis, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	b := &Basis{opts: o, vecs: make([]map[int]float64, g.N()), res: make([]Result, g.N())}
	seeds := make([]int, g.N())
	for i := range seeds {
		seeds[i] = i
	}
	if err := solveSeeds(g, o, seeds, b.vecs, b.res, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// PrecomputePartial computes basis vectors only for the given seed tasks
// (others stay nil). The Figure-10 scalability experiment uses it: online
// estimation and assignment only ever read the vectors of *observed* tasks,
// so precomputing all N vectors of a million-task graph is unnecessary.
// Like Precompute it fans out across Options.Workers solvers with
// deterministic merge order.
func PrecomputePartial(g *simgraph.Graph, o Options, seeds []int) (*Basis, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	b := &Basis{opts: o, vecs: make([]map[int]float64, g.N()), res: make([]Result, g.N())}
	// Deduplicate up front so no two pool workers ever write the same index.
	uniq := make([]int, 0, len(seeds))
	seen := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= g.N() {
			return nil, errors.New("ppr: seed out of range")
		}
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	if err := solveSeeds(g, o, uniq, b.vecs, b.res, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// SolveMissing solves the basis vectors of the given seeds that do not have
// one yet — the delta path of incremental basis maintenance. Seeds already
// solved (and duplicates) are skipped, so callers can feed it every newly
// observed task without bookkeeping; it returns how many vectors were
// actually solved. The scratch solver is cached across calls, making the
// steady-state cost of one new seed its graph neighborhood plus one map
// allocation (BenchmarkPrecomputeDelta pins it >= 10x cheaper than a full
// Precompute). Solved vectors are bit-identical to what Precompute would
// produce. Not safe for concurrent use with readers of the basis.
func (b *Basis) SolveMissing(g *simgraph.Graph, seeds []int) (int, error) {
	if g.N() != len(b.vecs) {
		return 0, errors.New("ppr: graph does not match basis size")
	}
	uniq := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= len(b.vecs) {
			return 0, errors.New("ppr: seed out of range")
		}
		if b.vecs[s] != nil {
			continue
		}
		dup := false
		for _, u := range uniq {
			if u == s {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, s)
		}
	}
	if len(uniq) == 0 {
		return 0, nil
	}
	if b.solver == nil || b.solverGraph != g {
		b.solver = NewSolver(g)
		b.solverGraph = g
	}
	if err := solveSeeds(g, b.opts, uniq, b.vecs, b.res, b.solver); err != nil {
		return 0, err
	}
	return len(uniq), nil
}

// Extend grows the basis to cover a graph that gained tasks (appended IDs:
// existing task IDs must be unchanged). New slots start unsolved — pair
// with SolveMissing to fill the ones that get observed. It returns the
// number of slots added; shrinking is an error.
func (b *Basis) Extend(g *simgraph.Graph) (int, error) {
	if g.N() < len(b.vecs) {
		return 0, errors.New("ppr: graph smaller than basis")
	}
	added := g.N() - len(b.vecs)
	b.vecs = append(b.vecs, make([]map[int]float64, added)...)
	b.res = append(b.res, make([]Result, added)...)
	return added, nil
}

// Invalidate drops task i's basis vector (after a graph change around i,
// re-Extend with the new graph and Invalidate the affected neighborhoods)
// so the next SolveMissing recomputes it.
func (b *Basis) Invalidate(i int) {
	b.vecs[i] = nil
	b.res[i] = Result{}
}

// solveSeeds solves every seed in the list (assumed valid and distinct)
// and stores vecs[seed]/res[seed]. Empty batches return before touching
// any instrument, so no-op calls (all-duplicate PrecomputePartial input,
// SolveMissing with nothing missing) cannot pollute the batch-latency
// histogram. Without a shared solver, the seeds of a small graph go out in
// lane batches (laneBatches) to the batched kernel; otherwise — a large
// graph, or the delta path, whose shared solver is SolveMissing's — they go
// out one at a time to the push Solver. With one worker the units run
// inline on the shared scratch solver (allocated on first use when the
// caller has none); otherwise a bounded pool claims units off an atomic
// cursor, each pool worker reusing its own scratch across all its units.
// Each result lands at its own index and errors are reported for the
// lowest failing unit, so the outcome is independent of goroutine
// scheduling — and both kernels' fixed accumulation order makes it
// bit-identical for any worker count.
func solveSeeds(g *simgraph.Graph, o Options, seeds []int, vecs []map[int]float64, res []Result, shared *Solver) error {
	if len(seeds) == 0 {
		return nil
	}
	var batches [][]int
	if shared == nil {
		batches = laneBatches(g, seeds)
	}
	work := units{seeds: seeds, batches: batches}
	workers := o.workerCount(work.len())
	mPoolWorkers.Set(float64(workers))
	defer func(start time.Time) {
		mSolveLat.Observe(time.Since(start))
		mSeedsSolved.Add(int64(len(seeds)))
	}(time.Now())
	if workers == 1 {
		sc := scratch{g: g, sv: shared}
		for k := 0; k < work.len(); k++ {
			if err := sc.solve(work.at(k), o, vecs, res); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, work.len())
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratch{g: g} // per-pool-worker scratch, reused across its units
			for {
				k := int(cursor.Add(1)) - 1
				if k >= work.len() {
					return
				}
				errs[k] = sc.solve(work.at(k), o, vecs, res)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// units is solveSeeds' work list: the lane batches when there are any,
// each seed alone otherwise.
type units struct {
	seeds   []int
	batches [][]int
}

func (u units) len() int {
	if u.batches != nil {
		return len(u.batches)
	}
	return len(u.seeds)
}

func (u units) at(k int) []int {
	if u.batches != nil {
		return u.batches[k]
	}
	return u.seeds[k : k+1]
}

// scratch is one solveSeeds worker's solvers, each allocated on first use.
type scratch struct {
	g  *simgraph.Graph
	sv *Solver
	bs *batchSolver
}

// solve solves one unit: a batch of two or more seeds on the batched
// kernel, a single seed on the push Solver.
func (sc *scratch) solve(unit []int, o Options, vecs []map[int]float64, res []Result) error {
	if len(unit) > 1 {
		if sc.bs == nil {
			sc.bs = newBatchSolver(sc.g)
		}
		sc.bs.solve(unit, o, vecs, res)
		return nil
	}
	if sc.sv == nil {
		sc.sv = NewSolver(sc.g)
	}
	v, r, err := sc.sv.Solve(unit[0], o)
	if err != nil {
		return err
	}
	vecs[unit[0]] = v
	res[unit[0]] = r
	return nil
}

// N returns the number of tasks the basis covers.
func (b *Basis) N() int { return len(b.vecs) }

// Options returns the solver options the basis was built with.
func (b *Basis) Options() Options { return b.opts }

// Vec returns the basis vector p_{t_i} as a sparse map. Callers must not
// mutate it.
func (b *Basis) Vec(i int) map[int]float64 { return b.vecs[i] }

// SolveResult returns how task i's basis solve terminated. Never-solved
// seeds (nil Vec) report the zero Result, i.e. not converged.
func (b *Basis) SolveResult(i int) Result { return b.res[i] }

// Converged reports whether every *solved* basis vector reached Tol.
// Anything combined through an unconverged vector inherits its truncation
// error, so callers gating on basis quality should check this (the server's
// readiness probe does).
func (b *Basis) Converged() bool {
	for i, v := range b.vecs {
		if v != nil && !b.res[i].Converged {
			return false
		}
	}
	return true
}

// Unconverged returns the IDs of solved-but-unconverged basis vectors, in
// ascending order.
func (b *Basis) Unconverged() []int {
	var out []int
	for i, v := range b.vecs {
		if v != nil && !b.res[i].Converged {
			out = append(out, i)
		}
	}
	return out
}

// Missing returns the IDs with no solved basis vector, in ascending order —
// the complement SolveMissing would fill.
func (b *Basis) Missing() []int {
	var out []int
	for i, v := range b.vecs {
		if v == nil {
			out = append(out, i)
		}
	}
	return out
}

// NNZ returns the number of stored nonzeros across all basis vectors.
func (b *Basis) NNZ() int {
	var n int
	for _, v := range b.vecs {
		n += len(v)
	}
	return n
}

// Combine applies Lemma 3: given sparse observed accuracies q (task -> q_i),
// it returns p* = sum_i q_i * p_{t_i} as a sparse map.
func (b *Basis) Combine(q map[int]float64) map[int]float64 {
	out := make(map[int]float64, 4*len(q))
	for i, qi := range q {
		if qi == 0 {
			continue
		}
		for j, pj := range b.vecs[i] {
			out[j] += qi * pj
		}
	}
	return out
}

// CombineInto is Combine writing into a caller-provided map (cleared first),
// avoiding per-call allocation on the assignment hot path.
func (b *Basis) CombineInto(q map[int]float64, out map[int]float64) {
	for k := range out {
		delete(out, k)
	}
	for i, qi := range q {
		if qi == 0 {
			continue
		}
		for j, pj := range b.vecs[i] {
			out[j] += qi * pj
		}
	}
}

// Support returns the sorted task IDs reachable (nonzero) from seed i's
// basis vector. Used by the qualification influence function (Section 5).
func (b *Basis) Support(i int) []int {
	out := make([]int, 0, len(b.vecs[i]))
	for j := range b.vecs[i] {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}
