// Command icrowd-sim runs a single simulated crowdsourcing job with a
// chosen assignment strategy and prints per-domain accuracy and worker
// statistics.
//
// Usage:
//
//	icrowd-sim -dataset ItemCompare -strategy icrowd -k 3 -seed 7
//	icrowd-sim -dataset YahooQA -strategy randommv
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/experiments"
	"icrowd/internal/obsv"
	"icrowd/internal/qualify"
	"icrowd/internal/sim"
	"icrowd/internal/simgraph"
)

func main() {
	var (
		dataset   = flag.String("dataset", "ItemCompare", "dataset (YahooQA, ItemCompare)")
		strategy  = flag.String("strategy", "icrowd", "strategy: icrowd, qfonly, besteffort, randommv, randomem, avgaccpv")
		k         = flag.Int("k", 3, "assignment size per microtask")
		q         = flag.Int("q", 10, "qualification microtasks")
		seed      = flag.Int64("seed", 1, "random seed")
		measure   = flag.String("measure", "Jaccard", "similarity measure")
		threshold = flag.Float64("threshold", 0.25, "similarity threshold")
		alpha     = flag.Float64("alpha", 1.0, "estimation balance parameter")
		workers   = flag.Int("workers", 0, "worker-pool size (0 = paper default)")
		conc      = flag.Int("concurrency", 0, "PPR basis precompute fan-out (0 = GOMAXPROCS, 1 = sequential)")
		top       = flag.Int("top", 10, "how many top workers to list")
		mAddr     = flag.String("metrics-addr", "", "serve live run metrics (Prometheus text) on this listener while the simulation runs")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr listener")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, err := obsv.NewLoggerFromFlags(*logFormat, *logLevel, obsv.Default())
	if err != nil {
		fail(err)
	}
	slog.SetDefault(logger)

	if *mAddr != "" {
		stopRuntime := obsv.StartRuntime(obsv.Default(), 0)
		defer stopRuntime()
		ms, err := obsv.Serve(*mAddr, obsv.ServeOptions{Registry: obsv.Default(), Pprof: *pprofOn})
		if err != nil {
			fail(err)
		}
		defer ms.Close()
		logger.Info("metrics listener started", slog.String("addr", *mAddr))
	}

	ds, pool, err := experiments.LoadDataset(*dataset, *seed, *workers)
	if err != nil {
		fail(err)
	}
	bc := core.DefaultBasisConfig()
	bc.Measure = simgraph.MeasureKind(*measure)
	bc.Threshold = *threshold
	bc.Alpha = *alpha
	bc.Seed = *seed
	bc.Workers = *conc
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		fail(err)
	}

	var st core.Strategy
	var qual []int
	modes := map[string]core.Mode{
		"icrowd": core.ModeAdapt, "qfonly": core.ModeQFOnly, "besteffort": core.ModeBestEffort,
	}
	if mode, ok := modes[*strategy]; ok {
		cfg := core.DefaultConfig()
		cfg.K = *k
		cfg.Q = *q
		cfg.Alpha = *alpha
		cfg.Mode = mode
		cfg.Seed = *seed
		ic, err := core.New(ds, basis, cfg)
		if err != nil {
			fail(err)
		}
		st = ic
		qual = ic.QualificationTasks()
	} else {
		// Baselines share an InfQF qualification set, as in Section 6.4.
		qual, err = qualify.Select(qualify.InfQF, basis, *q, *seed)
		if err != nil {
			fail(err)
		}
		switch *strategy {
		case "randommv":
			st, err = baseline.NewRandomMV(ds, *k, qual, *seed)
		case "randomem":
			st, err = baseline.NewRandomEM(ds, *k, qual, *seed)
		case "avgaccpv":
			st, err = baseline.NewAvgAccPV(ds, *k, qual, 0, *seed)
		default:
			err = fmt.Errorf("unknown strategy %q", *strategy)
		}
		if err != nil {
			fail(err)
		}
	}

	res, err := sim.Run(st, ds, pool, sim.RunOptions{Seed: *seed + 7, ExcludeTasks: qual})
	if err != nil {
		fail(err)
	}

	fmt.Printf("strategy:   %s\n", res.Strategy)
	fmt.Printf("dataset:    %s (%d tasks, %d workers, k=%d)\n", ds.Name, ds.Len(), len(pool), *k)
	fmt.Printf("completed:  %v in %d request steps\n", res.Completed, res.Steps)
	fmt.Printf("accuracy:   %.3f overall\n", res.Accuracy)
	doms := append([]string(nil), ds.Domains...)
	sort.Strings(doms)
	for _, dom := range doms {
		fmt.Printf("  %-12s %.3f\n", dom, res.PerDomain[dom])
	}
	fmt.Printf("assignments: %d total\n", res.TotalAssignments())
	tops := res.TopWorkers()
	if len(tops) > *top {
		tops = tops[:*top]
	}
	fmt.Println("top workers:")
	for i, w := range tops {
		fmt.Printf("  %2d. %s  %d assignments\n", i+1, w, res.Assignments[w])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "icrowd-sim:", err)
	os.Exit(1)
}
