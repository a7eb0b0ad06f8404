package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"icrowd/internal/assign"
	"icrowd/internal/core"
	"icrowd/internal/estimate"
	"icrowd/internal/ppr"
	"icrowd/internal/qualify"
	"icrowd/internal/sim"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// Fig10Result carries the scalability measurements of Figure 10.
type Fig10Result struct {
	Table *Table
	// Elapsed[maxNeighbors][nTasks] is the wall-clock time of one full
	// assignment round (top worker sets + greedy) at that scale.
	Elapsed map[int]map[int]time.Duration
}

// Fig10 reproduces the scalability simulation: random similarity graphs of
// growing size (the paper inserts 0.2M tasks at a time up to 1M), a bounded
// number of random neighbors per microtask, and the elapsed time of task
// assignment measured per scale.
func Fig10(sizes []int, neighbors []int, workers int, seed int64) (*Fig10Result, error) {
	if len(sizes) == 0 {
		sizes = []int{200_000, 400_000, 600_000, 800_000, 1_000_000}
	}
	if len(neighbors) == 0 {
		neighbors = []int{20, 40}
	}
	if workers <= 0 {
		workers = 100
	}
	out := &Fig10Result{Elapsed: map[int]map[int]time.Duration{}}
	t := &Table{
		Title:  "Figure 10: Scalability of Task Assignment (simulation)",
		Header: []string{"#Microtasks"},
	}
	for _, m := range neighbors {
		t.Header = append(t.Header, fmt.Sprintf("%d neighbors", m))
		out.Elapsed[m] = map[int]time.Duration{}
	}
	for _, n := range sizes {
		row := []string{fmt.Sprint(n)}
		for _, m := range neighbors {
			d, err := assignmentRoundTime(n, m, workers, seed)
			if err != nil {
				return nil, err
			}
			out.Elapsed[m][n] = d
			row = append(row, d.Round(time.Millisecond).String())
		}
		t.AddRow(row...)
	}
	out.Table = t
	return out, nil
}

// assignmentRoundTime sets up the scale-n workload and times one full
// assignment round (Algorithm 2 steps 1-2) over it.
func assignmentRoundTime(n, maxNeighbors, workers int, seed int64) (time.Duration, error) {
	g, err := simgraph.BuildRandom(n, maxNeighbors, seed)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	// Each worker has observed a handful of completed microtasks; only
	// those tasks need basis vectors (PrecomputePartial).
	const obsPerWorker = 5
	type obs struct {
		worker string
		task   int
		q      float64
	}
	var observations []obs
	var seeds []int
	ids := make([]string, workers)
	for w := 0; w < workers; w++ {
		ids[w] = fmt.Sprintf("W%04d", w)
		for o := 0; o < obsPerWorker; o++ {
			tid := rng.Intn(n)
			seeds = append(seeds, tid)
			observations = append(observations, obs{ids[w], tid, rng.Float64()})
		}
	}
	opts := ppr.DefaultOptions()
	opts.DropTol = 1e-4 // keep basis vectors tightly local at this scale
	basis, err := ppr.PrecomputePartial(g, opts, seeds)
	if err != nil {
		return 0, err
	}
	est := estimate.New(basis, 0)
	for _, id := range ids {
		est.EnsureWorker(id, 0.4+0.5*rng.Float64())
	}
	for _, o := range observations {
		if err := est.Observe(o.worker, o.task, o.q); err != nil {
			return 0, err
		}
	}
	// Timed region: one full Algorithm-2 round at scale. Take the best of
	// three runs to suppress GC/scheduler noise in the wall-clock numbers.
	best := time.Duration(0)
	for round := 0; round < 3; round++ {
		start := time.Now()
		ix := assign.NewIndex(est, ids)
		cands := make([]assign.CandidateAssignment, 0, n)
		for tid := 0; tid < n; tid++ {
			top := ix.TopWorkers(nil, tid, 3, nil)
			if len(top) > 0 {
				cands = append(cands, assign.CandidateAssignment{Task: tid, Workers: top})
			}
		}
		scheme := assign.Greedy(cands)
		elapsed := time.Since(start)
		if len(scheme) == 0 {
			return 0, fmt.Errorf("experiments: empty scheme at n=%d", n)
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// Fig12 evaluates similarity measures and thresholds (Appendix D.1) on
// ItemCompare: overall accuracy of the adaptive strategy per
// (measure, threshold).
func Fig12(thresholds []float64, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
	}
	ds, pool, err := LoadDataset(DatasetItemCompare, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	acc := map[string]map[string]float64{}
	t := &Table{
		Title:  "Figure 12: Similarity Measures and Thresholds (ItemCompare)",
		Header: []string{"Measure"},
	}
	for _, th := range thresholds {
		t.Header = append(t.Header, fmt.Sprintf("t=%.2f", th))
	}
	for _, kind := range simgraph.Measures {
		metric, err := simgraph.MetricFor(kind, ds, opt.Seed)
		if err != nil {
			return nil, err
		}
		acc[string(kind)] = map[string]float64{}
		row := []string{string(kind)}
		for _, th := range thresholds {
			g, err := simgraph.Build(ds.Len(), metric, th, 0)
			if err != nil {
				return nil, err
			}
			popts := ppr.DefaultOptions()
			popts.Alpha = opt.Alpha
			basis, err := ppr.Precompute(g, popts)
			if err != nil {
				return nil, err
			}
			a, err := averageRuns(ds, pool, icrowdFactory(ds, basis, opt, core.ModeAdapt, qualify.InfQF), opt)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("t=%.2f", th)
			acc[string(kind)][key] = a["ALL"]
			row = append(row, f3(a["ALL"]))
		}
		t.AddRow(row...)
	}
	return &SeriesResult{Table: t, Acc: acc}, nil
}

// Fig13 sweeps the estimation balance parameter alpha (Appendix D.2) on
// ItemCompare. alpha must be positive for the solver; the paper's alpha=0
// endpoint is approximated by a very small value.
func Fig13(alphas []float64, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults()
	if len(alphas) == 0 {
		alphas = []float64{0.01, 0.1, 0.5, 1, 2, 10, 100}
	}
	ds, pool, err := LoadDataset(DatasetItemCompare, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	metric, err := simgraph.MetricFor(simgraph.MeasureKind(opt.Measure), ds, opt.Seed)
	if err != nil {
		return nil, err
	}
	g, err := simgraph.Build(ds.Len(), metric, opt.SimThreshold, 0)
	if err != nil {
		return nil, err
	}
	acc := map[string]map[string]float64{"Adapt": {}}
	t := &Table{
		Title:  "Figure 13: Effect of Parameter alpha (ItemCompare)",
		Header: []string{"alpha", "accuracy"},
	}
	for _, alpha := range alphas {
		popts := ppr.DefaultOptions()
		popts.Alpha = alpha
		basis, err := ppr.Precompute(g, popts)
		if err != nil {
			return nil, err
		}
		aOpt := opt
		aOpt.Alpha = alpha
		a, err := averageRuns(ds, pool, icrowdFactory(ds, basis, aOpt, core.ModeAdapt, qualify.InfQF), aOpt)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%g", alpha)
		acc["Adapt"][key] = a["ALL"]
		t.AddRow(key, f3(a["ALL"]))
	}
	return &SeriesResult{Table: t, Acc: acc}, nil
}

// Table5Result carries the greedy approximation errors of Appendix D.4.
type Table5Result struct {
	Table *Table
	// ErrorPct[w] is the averaged approximation error (percent) with w
	// active workers.
	ErrorPct map[int]float64
}

// Table5 measures the approximation error of the greedy assignment against
// the exact optimum for 3-7 active workers on ItemCompare, mirroring the
// paper's setup: worker-accuracy estimates come from an actual completed
// adaptive run, and each measurement draws a random subset of the qualified
// workers as the active set. The exact solution uses the set-packing DP
// (the paper's enumeration timed out past 7 workers; the DP also verifies
// those sizes instantly).
func Table5(workerCounts []int, opt Options) (*Table5Result, error) {
	opt = opt.withDefaults()
	if len(workerCounts) == 0 {
		workerCounts = []int{3, 4, 5, 6, 7}
	}
	ds, pool, err := LoadDataset(DatasetItemCompare, opt.Seed, 0)
	if err != nil {
		return nil, err
	}
	basis, err := buildBasis(ds, opt)
	if err != nil {
		return nil, err
	}
	// One full adaptive run provides the estimator state the paper measured
	// against (it enumerated schemes over the estimates of its live system).
	mk := icrowdFactory(ds, basis, opt, core.ModeAdapt, qualify.InfQF)
	st, qual, err := mk(opt.Seed, nil)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(st, ds, pool, sim.RunOptions{Seed: opt.Seed + 7, MaxSteps: opt.MaxSteps, ExcludeTasks: qual})
	if err != nil {
		return nil, err
	}
	if !res.Completed {
		return nil, fmt.Errorf("experiments: Table5 estimation run did not complete")
	}
	ic := st.(*core.ICrowd)
	est := ic.Estimator()
	var qualified []string
	for _, id := range est.Workers() {
		if !ic.Rejected(id) {
			qualified = append(qualified, id)
		}
	}

	out := &Table5Result{ErrorPct: map[int]float64{}}
	t := &Table{
		Title:  "Table 5: Approximation Error of Greedy Assignment (ItemCompare)",
		Header: []string{"# active workers", "approx. error (%)"},
	}
	repeats := opt.Repeats
	if repeats < 5 {
		repeats = 5
	}
	for _, nw := range workerCounts {
		var sumErr float64
		for r := 0; r < repeats; r++ {
			e, err := greedyErrorOnce(ds, est, qualified, nw, opt, opt.Seed+int64(r)*131)
			if err != nil {
				return nil, err
			}
			sumErr += e
		}
		avg := sumErr / float64(repeats)
		out.ErrorPct[nw] = avg
		t.AddRow(fmt.Sprint(nw), fmt.Sprintf("%.2f", avg))
	}
	out.Table = t
	return out, nil
}

// greedyErrorOnce samples nw active workers from the qualified pool, builds
// the candidate assignments (each microtask's top worker set under the
// run's estimates), and returns (OPT - APP) / OPT * 100.
func greedyErrorOnce(ds *task.Dataset, est *estimate.Estimator, qualified []string, nw int, opt Options, seed int64) (float64, error) {
	if nw > len(qualified) {
		nw = len(qualified)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(qualified))
	ids := make([]string, nw)
	for i := 0; i < nw; i++ {
		ids[i] = qualified[perm[i]]
	}
	// Mid-round snapshot: each microtask has j ~ Uniform{0..k-1} workers
	// already in W^d(t) — and those are the task's *best* workers, because
	// that is who the framework assigned first. The remaining top worker
	// set has size k-j drawn from the next-best candidates. The small
	// leftover sets are exactly what lets Algorithm 3's greedy cover
	// straggler workers after its big early picks, which is why the
	// paper's measured approximation errors stay below 2%.
	var cands []assign.CandidateAssignment
	for tid := 0; tid < ds.Len(); tid++ {
		j := rng.Intn(opt.K)
		kPrime := opt.K - j
		eligible := ids
		if j > 0 {
			assigned := map[string]bool{}
			for _, c := range assign.TopWorkers(est, tid, j, ids) {
				assigned[c.Worker] = true
			}
			eligible = make([]string, 0, nw-j)
			for _, id := range ids {
				if !assigned[id] {
					eligible = append(eligible, id)
				}
			}
		}
		top := assign.TopWorkers(est, tid, kPrime, eligible)
		if len(top) > 0 {
			cands = append(cands, assign.CandidateAssignment{Task: tid, Workers: top})
		}
	}
	app := assign.TotalValue(assign.Greedy(cands))
	optVal, _, err := assign.Optimal(cands)
	if err != nil {
		return 0, err
	}
	if optVal == 0 {
		return 0, nil
	}
	return (optVal - app) / optVal * 100, nil
}
