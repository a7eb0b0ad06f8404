package experiments

import (
	"fmt"
	"slices"

	"icrowd/internal/core"
	"icrowd/internal/qualify"
	"icrowd/internal/sim"
)

// ExtDrift is an extension experiment beyond the paper's evaluation: it
// compares the Adapt and QF-Only strategies on a *non-stationary* crowd,
// where half of the workers drift — experts fatigue toward mediocrity and
// some mediocre workers improve — over the course of the job.
//
// Frozen qualification estimates (QF-Only) cannot track drift, while the
// adaptive estimator keeps re-observing workers through consensus outcomes
// (Eq. 5) and Step-3 tests; the gap between the two isolates the value of
// adaptivity far more sharply than a stationary crowd can. The experiment
// runs live (not replayed): drift is a property of when a worker answers.
func ExtDrift(datasetName string, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults()
	ds, pool, err := LoadDataset(datasetName, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	basis, err := buildBasis(ds, opt)
	if err != nil {
		return nil, err
	}
	// Horizon: roughly how many request steps a full run takes.
	horizon := 6 * ds.Len()
	driftPool := applyDrift(ds, pool, horizon)

	acc := map[string]map[string]float64{}
	order := []string{string(core.ModeQFOnly), string(core.ModeAdapt)}
	for _, mode := range []core.Mode{core.ModeQFOnly, core.ModeAdapt} {
		sums := map[string]float64{}
		for r := 0; r < opt.Repeats; r++ {
			runSeed := opt.Seed + int64(r)*97
			cfg := core.DefaultConfig()
			cfg.K = opt.K
			cfg.Q = opt.Q
			cfg.Alpha = opt.Alpha
			cfg.Mode = mode
			cfg.QualStrategy = qualify.InfQF
			cfg.Seed = runSeed
			ic, err := core.New(ds, basis, cfg)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(ic, ds, clonePool(driftPool), sim.RunOptions{
				Seed:     runSeed + 7,
				MaxSteps: opt.MaxSteps,
			})
			if err != nil {
				return nil, err
			}
			if !res.Completed {
				return nil, fmt.Errorf("experiments: drift run (%s, repeat %d) did not complete", mode, r)
			}
			sums["ALL"] += res.Accuracy
			for dom, a := range res.PerDomain {
				sums[dom] += a
			}
		}
		for k := range sums {
			sums[k] /= float64(opt.Repeats)
		}
		acc[string(mode)] = sums
	}
	title := fmt.Sprintf("Extension: Adaptivity under Worker Drift (%s, k=%d)", datasetName, opt.K)
	return &SeriesResult{Table: seriesTable(title, ds, order, acc), Acc: acc}, nil
}

// applyDrift makes half the pool non-stationary: experts decay toward 0.55
// in their strong domains, and every third spammer-ish worker improves to
// 0.85 in one domain (someone warmed up and got good) — the first such
// domain in name order, so the drifted pool depends only on its input.
func applyDrift(ds interface{ Len() int }, pool []sim.Profile, horizon int) []sim.Profile {
	out := clonePool(pool)
	for i := range out {
		if i%2 != 0 {
			continue
		}
		p := &out[i]
		p.DriftSteps = horizon
		p.DriftTo = map[string]float64{}
		improved := false
		doms := make([]string, 0, len(p.DomainAcc))
		for dom := range p.DomainAcc {
			doms = append(doms, dom)
		}
		slices.Sort(doms)
		for _, dom := range doms {
			switch a := p.DomainAcc[dom]; {
			case a >= 0.8:
				p.DriftTo[dom] = 0.4 // fatigue
			case a <= 0.6 && i%3 == 0 && !improved:
				p.DriftTo[dom] = 0.85 // learning
				improved = true
			}
		}
		if len(p.DriftTo) == 0 {
			p.DriftSteps = 0
			p.DriftTo = nil
		}
	}
	return out
}

func clonePool(pool []sim.Profile) []sim.Profile {
	out := make([]sim.Profile, len(pool))
	copy(out, pool)
	return out
}
