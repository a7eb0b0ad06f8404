// Command icrowd-server stands up the Appendix-A web server: the
// ExternalQuestion endpoint AMT HITs would call for targeted task
// assignment. It serves /v1/assign, /v1/submit, /v1/inactive, /v1/status
// and /v1/results over any assignment strategy (the seed's unversioned
// spellings are gone and answer the typed 404).
//
// Usage:
//
//	icrowd-server -addr :8080 -dataset ItemCompare -strategy icrowd
//
// Then drive it with the platform client (see examples/platform) or plain
// HTTP:
//
//	curl 'http://localhost:8080/v1/assign?workerId=alice'
//	curl -X POST http://localhost:8080/v1/submit \
//	     -d '{"workerId":"alice","taskId":17,"answer":"YES"}'
//	curl http://localhost:8080/v1/status
//	curl http://localhost:8080/v1/healthz
//	curl http://localhost:8080/v1/readyz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/experiments"
	"icrowd/internal/obsv"
	"icrowd/internal/platform"
	"icrowd/internal/qualify"
	"icrowd/internal/simgraph"
	"icrowd/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataset     = flag.String("dataset", "ItemCompare", "dataset (YahooQA, ItemCompare)")
		strategy    = flag.String("strategy", "icrowd", "strategy: icrowd, qfonly, besteffort, randommv, randomem, avgaccpv")
		k           = flag.Int("k", 3, "assignment size per microtask")
		q           = flag.Int("q", 10, "qualification microtasks")
		seed        = flag.Int64("seed", 1, "random seed")
		measure     = flag.String("measure", "Jaccard", "similarity measure")
		threshold   = flag.Float64("threshold", 0.25, "similarity threshold")
		logPath     = flag.String("log", "", "event-log file; replayed on startup for crash recovery (single-project mode)")
		dataDir     = flag.String("data-dir", "", "multi-project data directory: each project's events live under <dir>/<id>/, every project found is resumed on startup (mutually exclusive with -log)")
		lease       = flag.Duration("lease", 0, "assignment lease: reclaim tasks from workers silent this long (0 disables)")
		fsync       = flag.String("fsync", "never", "event-log fsync policy: never, always, or an integer N (fsync every N appends)")
		snapEvery   = flag.Int("snapshot-every", 0, "snapshot+compact the event log every N appends (0 disables; requires -log or -data-dir)")
		conc        = flag.Int("concurrency", 0, "PPR basis precompute fan-out (0 = GOMAXPROCS, 1 = sequential)")
		maxInFlight = flag.Int("max-inflight", 0, "admission control: max concurrent write requests (0 disables)")
		queueDepth  = flag.Int("queue-depth", 64, "admission control: requests allowed to wait for a slot before new arrivals are shed with 429")
		queueTO     = flag.Duration("queue-timeout", time.Second, "admission control: max wait for admission before shedding with 429")
		reqTO       = flag.Duration("request-timeout", 0, "server-side deadline per write request, queue wait included (0 disables)")
		workerRate  = flag.Float64("worker-rate", 0, "per-worker rate limit in requests/second (0 disables)")
		workerBurst = flag.Float64("worker-burst", 0, "per-worker burst allowance (0 = same as -worker-rate, min 1)")
		overloadWin = flag.Duration("overload-window", 5*time.Second, "sustained queue saturation before /v1/readyz reports degraded")
		sloLatency  = flag.Duration("slo-latency", 0, "default per-request latency SLO target; enables the burn-rate engine and GET /v1/slo (0 disables)")
		sloPerEP    = flag.String("slo-endpoint-latency", "", `per-endpoint latency target overrides as endpoint=duration pairs, e.g. "assign=5ms,submit=25ms" (requires -slo-latency)`)
		sloLatGoal  = flag.Float64("slo-latency-goal", 0.99, "fraction of requests that must meet their latency target")
		sloErrGoal  = flag.Float64("slo-error-goal", 0.999, "fraction of requests that must not fail with 5xx")
		sloBurn     = flag.Float64("slo-burn-degraded", 0, "report degraded on /v1/readyz while any objective's 5m burn rate exceeds this multiple (0 disables; 14.4 is the canonical fast-burn threshold)")
		mAddr       = flag.String("metrics-addr", "", "serve Prometheus metrics on this extra listener (metrics are always at GET /v1/metrics on -addr)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on -addr (and on -metrics-addr when set)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, err := obsv.NewLoggerFromFlags(*logFormat, *logLevel, obsv.Default())
	if err != nil {
		fail(err)
	}
	slog.SetDefault(logger)

	syncEvery, err := parseFsync(*fsync)
	if err != nil {
		fail(err)
	}

	ds, _, err := experiments.LoadDataset(*dataset, *seed, 0)
	if err != nil {
		fail(err)
	}
	bc := core.DefaultBasisConfig()
	bc.Measure = simgraph.MeasureKind(*measure)
	bc.Threshold = *threshold
	bc.Seed = *seed
	bc.Workers = *conc
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		fail(err)
	}

	// newStrategy builds a fresh strategy from the flags with the given
	// seed. It doubles as the per-project factory: every project gets its
	// own instance, and the seed derived from the project id is stable
	// across restarts so replaying a project's log reconstructs its state.
	newStrategy := func(strategySeed int64) (core.Strategy, error) {
		modes := map[string]core.Mode{
			"icrowd": core.ModeAdapt, "qfonly": core.ModeQFOnly, "besteffort": core.ModeBestEffort,
		}
		if mode, ok := modes[*strategy]; ok {
			cfg := core.DefaultConfig()
			cfg.K = *k
			cfg.Q = *q
			cfg.Mode = mode
			cfg.Seed = strategySeed
			return core.New(ds, basis, cfg)
		}
		qual, err := qualify.Select(qualify.InfQF, basis, *q, strategySeed)
		if err != nil {
			return nil, err
		}
		switch *strategy {
		case "randommv":
			return baseline.NewRandomMV(ds, *k, qual, strategySeed)
		case "randomem":
			return baseline.NewRandomEM(ds, *k, qual, strategySeed)
		case "avgaccpv":
			return baseline.NewAvgAccPV(ds, *k, qual, 0, strategySeed)
		default:
			return nil, fmt.Errorf("unknown strategy %q", *strategy)
		}
	}
	st, err := newStrategy(*seed)
	if err != nil {
		fail(err)
	}

	// Durable storage. -log keeps the single-file, single-project layout;
	// -data-dir switches to the multi-project store (one subdirectory per
	// project).
	if *logPath != "" && *dataDir != "" {
		fail(fmt.Errorf("-log and -data-dir are mutually exclusive"))
	}
	if *snapEvery > 0 && *logPath == "" && *dataDir == "" {
		fail(fmt.Errorf("-snapshot-every requires -log or -data-dir"))
	}
	storeOpts := []store.Option{store.WithFsync(syncEvery)}
	if *snapEvery > 0 {
		storeOpts = append(storeOpts, store.WithSnapshotEvery(*snapEvery))
	}
	var (
		backend *store.Log
		recov   *store.RecoverInfo
		pstore  *store.ProjectStore
	)
	switch {
	case *logPath != "":
		backend, recov, err = store.Open(*logPath, storeOpts...)
		if err != nil {
			fail(err)
		}
	case *dataDir != "":
		pstore, err = store.OpenProjects(*dataDir, storeOpts...)
		if err != nil {
			fail(err)
		}
		backend, recov, err = pstore.Project(store.DefaultProject)
		if err != nil {
			fail(err)
		}
	}

	var srvOpts []platform.ServerOption
	if backend != nil {
		srvOpts = append(srvOpts, platform.WithBackend(backend))
	}
	srv := platform.NewServer(st, ds, srvOpts...)
	srv.SetLogger(logger)
	if *lease > 0 {
		srv.SetLease(*lease)
	}
	if *maxInFlight > 0 || *reqTO > 0 {
		srv.SetAdmission(platform.AdmissionConfig{
			MaxInFlight:    *maxInFlight,
			QueueDepth:     *queueDepth,
			QueueTimeout:   *queueTO,
			RequestTimeout: *reqTO,
			DegradedWindow: *overloadWin,
		})
		logger.Info("admission control enabled",
			slog.Int("max_inflight", *maxInFlight),
			slog.Int("queue_depth", *queueDepth),
			slog.Duration("queue_timeout", *queueTO),
			slog.Duration("request_timeout", *reqTO))
	}
	if *workerRate > 0 {
		srv.SetWorkerRateLimit(platform.RateLimit{Rate: *workerRate, Burst: *workerBurst})
		logger.Info("per-worker rate limit enabled",
			slog.Float64("rate", *workerRate), slog.Float64("burst", *workerBurst))
	}
	if *sloPerEP != "" && *sloLatency <= 0 {
		fail(fmt.Errorf("-slo-endpoint-latency requires -slo-latency > 0"))
	}
	if *sloLatency > 0 {
		perEP, err := platform.ParseSLOLatencySpec(*sloPerEP)
		if err != nil {
			fail(err)
		}
		srv.SetSLO(platform.SLOConfig{
			LatencyTarget:   *sloLatency,
			PerEndpoint:     perEP,
			LatencyGoal:     *sloLatGoal,
			ErrorGoal:       *sloErrGoal,
			DegradeBurnRate: *sloBurn,
		})
		logger.Info("SLO burn-rate engine enabled",
			slog.Duration("latency_target", *sloLatency),
			slog.Float64("latency_goal", *sloLatGoal),
			slog.Float64("error_goal", *sloErrGoal),
			slog.Float64("degrade_burn", *sloBurn))
	}
	if backend != nil {
		if recov != nil && recov.Tail != nil {
			logger.Warn("repaired damaged log tail",
				slog.String("tail", recov.Tail.String()))
		}
		if recov != nil && len(recov.Events) > 0 {
			if err := store.Replay(recov.Events, st); err != nil {
				fail(fmt.Errorf("recovering default project: %w", err))
			}
			srv.Restore(recov.Events)
			logger.Info("recovered events from log",
				slog.Int("events", len(recov.Events)),
				slog.Int("from_snapshot", recov.FromSnapshot))
		}
	}
	if *dataDir != "" {
		// Named projects: each gets a fresh strategy seeded from its id (so
		// replay after a restart rebuilds the same state) and its own
		// backend under -data-dir; everything already on disk resumes now.
		factory := func(id string) (core.Strategy, error) {
			return newStrategy(projectSeed(*seed, id))
		}
		resumed, err := srv.EnableProjects(pstore, factory)
		if err != nil {
			fail(err)
		}
		logger.Info("multi-project serving enabled",
			slog.String("data_dir", *dataDir),
			slog.Int("projects_resumed", resumed))
	}
	stopSweeper := func() {}
	if *lease > 0 {
		interval := *lease / 4
		if interval < time.Second {
			interval = time.Second
		}
		stopSweeper = srv.StartSweeper(interval)
		logger.Info("assignment leases enabled",
			slog.Duration("lease", *lease), slog.Duration("sweep_every", interval))
	}
	if *pprofOn {
		srv.EnablePprof()
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}
	stopRuntime := obsv.StartRuntime(obsv.Default(), 0)
	defer stopRuntime()
	if *mAddr != "" {
		ms, err := obsv.Serve(*mAddr, obsv.ServeOptions{
			Registry: srv.Registry(),
			Pprof:    *pprofOn,
			Health:   srv.Health(),
		})
		if err != nil {
			fail(err)
		}
		defer ms.Close()
		logger.Info("metrics listener started", slog.String("addr", *mAddr))
	}
	logger.Info("server listening",
		slog.String("strategy", st.Name()),
		slog.String("dataset", ds.Name),
		slog.Int("tasks", ds.Len()),
		slog.String("addr", *addr))

	// Serve until SIGINT/SIGTERM, then drain in-flight requests before
	// stopping the sweeper and closing the event logs.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		logger.Info("shutdown signal received; draining")
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer shutCancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown did not drain cleanly", slog.String("error", err.Error()))
		}
	}
	stopSweeper()
	if err := srv.Close(); err != nil {
		// The final fsync or close failed: acknowledged events may not be
		// durable, so the exit status must say so.
		logger.Error("closing the event log failed", slog.String("error", err.Error()))
		os.Exit(1)
	}
}

// projectSeed derives a stable per-project strategy seed from the base
// seed: the default project keeps the base seed exactly, named projects mix
// in a hash of their id so distinct projects draw distinct randomness while
// every restart of the same project rebuilds the same strategy.
func projectSeed(base int64, id string) int64 {
	if id == store.DefaultProject {
		return base
	}
	h := fnv.New64a()
	io.WriteString(h, id)
	return base ^ int64(h.Sum64()&math.MaxInt64)
}

// parseFsync maps the -fsync flag to store.WithFsync's argument:
// "never" -> 0, "always" -> 1, "N" -> every N appends.
func parseFsync(s string) (int, error) {
	switch s {
	case "never", "":
		return 0, nil
	case "always":
		return 1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("-fsync must be never, always, or a non-negative integer, got %q", s)
	}
	return n, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "icrowd-server:", err)
	os.Exit(1)
}
