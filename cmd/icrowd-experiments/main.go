// Command icrowd-experiments regenerates the paper's tables and figures
// (Section 6 and Appendix D) over the simulated crowd and prints them in
// the same rows/series the paper reports.
//
// Usage:
//
//	icrowd-experiments -exp all
//	icrowd-experiments -exp fig9 -dataset ItemCompare -repeats 5
//	icrowd-experiments -exp fig10 -sizes 200000,400000 -neighbors 20,40
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"icrowd/internal/experiments"
	"icrowd/internal/obsv"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table4, fig6, fig7, fig8, fig9, fig10, fig12, fig13, fig14, fig15, table5, drift (extension), all")
		dataset   = flag.String("dataset", "", "dataset for per-dataset experiments (YahooQA, ItemCompare; default: both)")
		seed      = flag.Int64("seed", 1, "master random seed")
		repeats   = flag.Int("repeats", 3, "repetitions to average per configuration")
		k         = flag.Int("k", 3, "assignment size per microtask")
		q         = flag.Int("q", 10, "number of qualification microtasks")
		measure   = flag.String("measure", "Jaccard", "similarity measure (Jaccard, Cos(tf-idf), Cos(topic))")
		threshold = flag.Float64("threshold", 0.25, "similarity threshold")
		alpha     = flag.Float64("alpha", 1.0, "estimation balance parameter")
		sizes     = flag.String("sizes", "", "fig10 task counts, comma separated (default 200k..1M)")
		neighbors = flag.String("neighbors", "", "fig10 max neighbors, comma separated (default 20,40)")
		workers   = flag.Int("workers", 0, "worker-pool size override (0 = paper default)")
		conc      = flag.Int("concurrency", 0, "PPR basis precompute fan-out (0 = GOMAXPROCS, 1 = sequential)")
		format    = flag.String("format", "text", "output format: text, csv, markdown")
		mAddr     = flag.String("metrics-addr", "", "serve live run metrics (Prometheus text) on this listener while experiments run")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, err := obsv.NewLoggerFromFlags(*logFormat, *logLevel, obsv.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, "icrowd-experiments:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	if *mAddr != "" {
		stopRuntime := obsv.StartRuntime(obsv.Default(), 0)
		defer stopRuntime()
		ms, err := obsv.Serve(*mAddr, obsv.ServeOptions{Registry: obsv.Default()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "icrowd-experiments:", err)
			os.Exit(1)
		}
		defer ms.Close()
		logger.Info("metrics listener started", slog.String("addr", *mAddr))
	}

	opt := experiments.Options{
		Seed:         *seed,
		Repeats:      *repeats,
		K:            *k,
		Q:            *q,
		Measure:      *measure,
		SimThreshold: *threshold,
		Alpha:        *alpha,
		Workers:      *workers,
		Concurrency:  *conc,
	}
	datasets := experiments.Datasets
	if *dataset != "" {
		datasets = []string{*dataset}
	}

	emit := func(t *experiments.Table) error {
		s, err := t.Render(*format)
		if err != nil {
			return err
		}
		fmt.Println(s)
		return nil
	}
	run := func(name string) error {
		switch name {
		case "table4":
			return emit(experiments.Table4(*seed))
		case "fig6":
			for _, ds := range datasets {
				res, err := experiments.Fig6(ds, *seed)
				if err != nil {
					return err
				}
				if err := emit(res.Table); err != nil {
					return err
				}
			}
		case "fig7", "fig8", "fig9", "drift":
			for _, ds := range datasets {
				var res *experiments.SeriesResult
				var err error
				switch name {
				case "fig7":
					res, err = experiments.Fig7(ds, opt)
				case "fig8":
					res, err = experiments.Fig8(ds, opt)
				case "drift":
					res, err = experiments.ExtDrift(ds, opt)
				default:
					res, err = experiments.Fig9(ds, opt)
				}
				if err != nil {
					return err
				}
				if err := emit(res.Table); err != nil {
					return err
				}
			}
		case "fig10":
			res, err := experiments.Fig10(parseInts(*sizes), parseInts(*neighbors), *workers, *seed)
			if err != nil {
				return err
			}
			return emit(res.Table)
		case "fig12":
			res, err := experiments.Fig12(nil, opt)
			if err != nil {
				return err
			}
			return emit(res.Table)
		case "fig13":
			res, err := experiments.Fig13(nil, opt)
			if err != nil {
				return err
			}
			return emit(res.Table)
		case "fig14":
			res, err := experiments.Fig14(nil, opt)
			if err != nil {
				return err
			}
			return emit(res.Table)
		case "fig15":
			res, err := experiments.Fig15(opt)
			if err != nil {
				return err
			}
			if err := emit(res.Table); err != nil {
				return err
			}
			fmt.Printf("Total crowd assignments: %d\n\n", res.Total)
		case "table5":
			res, err := experiments.Table5(nil, opt)
			if err != nil {
				return err
			}
			return emit(res.Table)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table4", "fig6", "fig7", "fig8", "fig9", "fig12", "fig13", "fig14", "fig15", "table5", "drift", "fig10"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "icrowd-experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "icrowd-experiments: bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
