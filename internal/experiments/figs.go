package experiments

import (
	"fmt"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/ppr"
	"icrowd/internal/qualify"
	"icrowd/internal/replay"
	"icrowd/internal/sim"
	"icrowd/internal/simgraph"
	"icrowd/internal/stats"
	"icrowd/internal/task"
)

// newRandomMV adapts the baseline constructor to core.Strategy.
func newRandomMV(ds *task.Dataset, k int, qual []int, seed int64) (core.Strategy, error) {
	return baseline.NewRandomMV(ds, k, qual, seed)
}

// buildBasis constructs the similarity graph + PPR basis per the options.
func buildBasis(ds *task.Dataset, opt Options) (*ppr.Basis, error) {
	bc := core.DefaultBasisConfig()
	bc.Measure = simgraph.MeasureKind(opt.Measure)
	bc.Threshold = opt.SimThreshold
	bc.Alpha = opt.Alpha
	bc.Seed = opt.Seed
	bc.Workers = opt.Concurrency
	return core.BuildBasis(ds, bc)
}

// makeStrategy is a per-run strategy factory; it receives the repeat's
// answer pool (for eligibility restriction) and also reports which tasks
// were used for qualification.
type makeStrategy func(runSeed int64, pool *replay.Pool) (core.Strategy, []int, error)

// CollectPerTask is the paper's redundancy during answer collection
// ("Number of Assignments per HIT" = 10, Section 6.1).
const CollectPerTask = 10

// averageRuns executes the factory opt.Repeats times using the paper's
// replay methodology and averages per-domain and overall accuracy. Each
// repeat r collects a fresh answer pool with a seed derived from (opt.Seed,
// r); because collection is deterministic, every approach evaluated with
// the same Options consumes the *same* pools — exactly the paper's "ran
// different approaches for task assignment" over one collected answer set,
// repeated over independent answer sets for stability.
//
// Accuracy is scored over ALL microtasks, including the qualification ones
// (whose results are requester ground truth and therefore correct for every
// approach). Scoring only the non-qualification remainder would bias
// comparisons between qualification strategies: each arm would be graded on
// a different residual task set, and InfQF deliberately labels central
// (well-connected, easier-to-estimate) microtasks.
func averageRuns(ds *task.Dataset, profiles []sim.Profile, mk makeStrategy, opt Options) (map[string]float64, error) {
	mean, _, err := averageRunsWithStd(ds, profiles, mk, opt)
	return mean, err
}

// averageRunsWithStd is averageRuns additionally reporting the per-key
// sample standard deviation across repeats, for harnesses that want to
// show uncertainty alongside the means.
func averageRunsWithStd(ds *task.Dataset, profiles []sim.Profile, mk makeStrategy, opt Options) (map[string]float64, map[string]float64, error) {
	samples := map[string][]float64{}
	for r := 0; r < opt.Repeats; r++ {
		runSeed := opt.Seed + int64(r)*97
		pool, err := replay.Collect(ds, profiles, CollectPerTask, runSeed+13)
		if err != nil {
			return nil, nil, err
		}
		st, _, err := mk(runSeed, pool)
		if err != nil {
			return nil, nil, err
		}
		res, err := replay.Run(st, pool, sim.RunOptions{
			Seed:     runSeed + 7,
			MaxSteps: opt.MaxSteps,
		})
		if err != nil {
			return nil, nil, err
		}
		// Replay can leave a few microtasks short of consensus (all their
		// collected answerers rejected or exhausted); they score as their
		// current majority. A large shortfall indicates a bug.
		if unanswered := countNone(res, ds, st); unanswered > ds.Len()/5 {
			return nil, nil, fmt.Errorf("experiments: %s run %d left %d tasks unanswered",
				st.Name(), r, unanswered)
		}
		samples["ALL"] = append(samples["ALL"], res.Accuracy)
		for dom, a := range res.PerDomain {
			samples[dom] = append(samples[dom], a)
		}
	}
	mean := make(map[string]float64, len(samples))
	std := make(map[string]float64, len(samples))
	for k, xs := range samples {
		mean[k] = stats.Mean(xs)
		std[k] = stats.StdDev(xs)
	}
	return mean, std, nil
}

func countNone(res *sim.Result, ds *task.Dataset, st core.Strategy) int {
	n := 0
	for _, a := range st.Results() {
		if a == task.None {
			n++
		}
	}
	return n
}

// icrowdFactory builds an iCrowd-mode factory over a shared basis.
func icrowdFactory(ds *task.Dataset, basis *ppr.Basis, opt Options, mode core.Mode, qs qualify.Strategy) makeStrategy {
	return func(runSeed int64, pool *replay.Pool) (core.Strategy, []int, error) {
		cfg := core.DefaultConfig()
		cfg.K = opt.K
		cfg.Q = opt.Q
		cfg.Alpha = opt.Alpha
		cfg.Mode = mode
		cfg.QualStrategy = qs
		cfg.Seed = runSeed
		if pool != nil {
			cfg.Eligible = pool.Eligible()
		}
		ic, err := core.New(ds, basis, cfg)
		if err != nil {
			return nil, nil, err
		}
		return ic, ic.QualificationTasks(), nil
	}
}

// sharedQual returns the qualification set every approach shares in the
// baseline comparison (Section 6.4 uses the same set for all).
func sharedQual(basis *ppr.Basis, opt Options) ([]int, error) {
	return qualify.Select(qualify.InfQF, basis, opt.Q, opt.Seed)
}

// SeriesResult is a labeled accuracy series over domains (plus ALL): the
// generic payload of Figures 7, 8, 9 and 14.
type SeriesResult struct {
	Table *Table
	// Acc[approach][domain or "ALL"] = averaged accuracy.
	Acc map[string]map[string]float64
	// Std[approach][domain or "ALL"] = sample standard deviation across
	// repeats (filled by the runners that average multiple repeats).
	Std map[string]map[string]float64
}

func seriesTable(title string, ds *task.Dataset, order []string, acc map[string]map[string]float64) *Table {
	doms := domainsWithAll(ds)
	t := &Table{Title: title, Header: append([]string{"Approach"}, doms...)}
	for _, name := range order {
		row := []string{name}
		for _, d := range doms {
			row = append(row, f3(acc[name][d]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig7 compares RandomQF and InfQF qualification selection (Section 6.3.1)
// under the full adaptive strategy.
func Fig7(datasetName string, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults()
	ds, pool, err := LoadDataset(datasetName, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	basis, err := buildBasis(ds, opt)
	if err != nil {
		return nil, err
	}
	acc := map[string]map[string]float64{}
	for _, qs := range []qualify.Strategy{qualify.RandomQF, qualify.InfQF} {
		a, err := averageRuns(ds, pool, icrowdFactory(ds, basis, opt, core.ModeAdapt, qs), opt)
		if err != nil {
			return nil, err
		}
		acc[string(qs)] = a
	}
	title := fmt.Sprintf("Figure 7: Effect of Qualification (%s, Q=%d, k=%d)", datasetName, opt.Q, opt.K)
	return &SeriesResult{
		Table: seriesTable(title, ds, []string{string(qualify.RandomQF), string(qualify.InfQF)}, acc),
		Acc:   acc,
	}, nil
}

// Fig8 compares the QF-Only, BestEffort and Adapt assignment strategies
// (Section 6.3.2), all with InfQF qualification.
func Fig8(datasetName string, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults()
	ds, pool, err := LoadDataset(datasetName, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	basis, err := buildBasis(ds, opt)
	if err != nil {
		return nil, err
	}
	acc := map[string]map[string]float64{}
	order := []string{string(core.ModeQFOnly), string(core.ModeBestEffort), string(core.ModeAdapt)}
	for _, mode := range []core.Mode{core.ModeQFOnly, core.ModeBestEffort, core.ModeAdapt} {
		a, err := averageRuns(ds, pool, icrowdFactory(ds, basis, opt, mode, qualify.InfQF), opt)
		if err != nil {
			return nil, err
		}
		acc[string(mode)] = a
	}
	title := fmt.Sprintf("Figure 8: Effect of Adaptive Assignment (%s, k=%d)", datasetName, opt.K)
	return &SeriesResult{Table: seriesTable(title, ds, order, acc), Acc: acc}, nil
}

// baselineOrder is the paper's Figure-9 legend order.
var baselineOrder = []string{"RandomMV", "RandomEM", "AvgAccPV", "iCrowd"}

// approachFactories builds the four Figure-9 approaches over a shared
// basis/qualification set.
func approachFactories(ds *task.Dataset, basis *ppr.Basis, qual []int, opt Options) map[string]makeStrategy {
	return map[string]makeStrategy{
		"RandomMV": func(runSeed int64, pool *replay.Pool) (core.Strategy, []int, error) {
			s, err := baseline.NewRandomMV(ds, opt.K, qual, runSeed)
			if err == nil && pool != nil {
				s.SetEligible(pool.Eligible())
			}
			return s, qual, err
		},
		"RandomEM": func(runSeed int64, pool *replay.Pool) (core.Strategy, []int, error) {
			s, err := baseline.NewRandomEM(ds, opt.K, qual, runSeed)
			if err == nil && pool != nil {
				s.SetEligible(pool.Eligible())
			}
			return s, qual, err
		},
		"AvgAccPV": func(runSeed int64, pool *replay.Pool) (core.Strategy, []int, error) {
			s, err := baseline.NewAvgAccPV(ds, opt.K, qual, qualify.DefaultThreshold, runSeed)
			if err == nil && pool != nil {
				s.SetEligible(pool.Eligible())
			}
			return s, qual, err
		},
		"iCrowd": icrowdFactory(ds, basis, opt, core.ModeAdapt, qualify.InfQF),
	}
}

// Fig9 compares iCrowd against the three baselines (Section 6.4).
func Fig9(datasetName string, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults()
	ds, pool, err := LoadDataset(datasetName, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	basis, err := buildBasis(ds, opt)
	if err != nil {
		return nil, err
	}
	qual, err := sharedQual(basis, opt)
	if err != nil {
		return nil, err
	}
	factories := approachFactories(ds, basis, qual, opt)
	acc := map[string]map[string]float64{}
	std := map[string]map[string]float64{}
	for _, name := range baselineOrder {
		a, s, err := averageRunsWithStd(ds, pool, factories[name], opt)
		if err != nil {
			return nil, err
		}
		acc[name] = a
		std[name] = s
	}
	title := fmt.Sprintf("Figure 9: Comparison with Existing Approaches (%s, k=%d)", datasetName, opt.K)
	return &SeriesResult{Table: seriesTable(title, ds, baselineOrder, acc), Acc: acc, Std: std}, nil
}

// Fig14 sweeps the assignment size k over all four approaches (Appendix
// D.3), reporting overall accuracy per k.
func Fig14(ks []int, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults()
	if len(ks) == 0 {
		ks = []int{1, 3, 5, 7}
	}
	ds, pool, err := LoadDataset(DatasetItemCompare, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	basis, err := buildBasis(ds, opt)
	if err != nil {
		return nil, err
	}
	qual, err := sharedQual(basis, opt)
	if err != nil {
		return nil, err
	}
	acc := map[string]map[string]float64{}
	for _, name := range baselineOrder {
		acc[name] = map[string]float64{}
	}
	for _, k := range ks {
		kOpt := opt
		kOpt.K = k
		factories := approachFactories(ds, basis, qual, kOpt)
		for _, name := range baselineOrder {
			a, err := averageRuns(ds, pool, factories[name], kOpt)
			if err != nil {
				return nil, err
			}
			acc[name][fmt.Sprintf("k=%d", k)] = a["ALL"]
		}
	}
	t := &Table{
		Title:  "Figure 14: Evaluating Assignment Size k (ItemCompare)",
		Header: []string{"Approach"},
	}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
	}
	for _, name := range baselineOrder {
		row := []string{name}
		for _, k := range ks {
			row = append(row, f3(acc[name][fmt.Sprintf("k=%d", k)]))
		}
		t.AddRow(row...)
	}
	return &SeriesResult{Table: t, Acc: acc}, nil
}

// Fig15Result carries the assignment distribution of Appendix D.5.
type Fig15Result struct {
	Table *Table
	// TopShare[i] is the cumulative share of assignments completed by the
	// top i+1 workers.
	TopShare []float64
	// Total is the number of crowd assignments.
	Total int
}

// Fig15 reproduces the assignment distribution over the top-15 workers on
// ItemCompare under iCrowd.
func Fig15(opt Options) (*Fig15Result, error) {
	opt = opt.withDefaults()
	ds, pool, err := LoadDataset(DatasetItemCompare, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	basis, err := buildBasis(ds, opt)
	if err != nil {
		return nil, err
	}
	apool, err := replay.Collect(ds, pool, CollectPerTask, opt.Seed+13)
	if err != nil {
		return nil, err
	}
	mk := icrowdFactory(ds, basis, opt, core.ModeAdapt, qualify.InfQF)
	st, qual, err := mk(opt.Seed, apool)
	if err != nil {
		return nil, err
	}
	res, err := replay.Run(st, apool, sim.RunOptions{Seed: opt.Seed + 7, MaxSteps: opt.MaxSteps, ExcludeTasks: qual})
	if err != nil {
		return nil, err
	}
	tops := res.TopWorkers()
	if len(tops) > 15 {
		tops = tops[:15]
	}
	total := res.TotalAssignments()
	out := &Fig15Result{Total: total}
	t := &Table{
		Title:  "Figure 15: Microtask Completions of Top Workers (ItemCompare, k=3)",
		Header: []string{"Rank", "Worker", "#Assignments", "Share", "CumShare"},
	}
	cum := 0
	for i, w := range tops {
		n := res.Assignments[w]
		cum += n
		share := float64(n) / float64(total)
		cumShare := float64(cum) / float64(total)
		out.TopShare = append(out.TopShare, cumShare)
		t.AddRow(fmt.Sprint(i+1), w, fmt.Sprint(n), pct(share), pct(cumShare))
	}
	out.Table = t
	return out, nil
}
