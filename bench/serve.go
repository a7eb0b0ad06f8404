package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	"strings"
	"sync"
	"syscall"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/experiments"
	"icrowd/internal/obsv"
	"icrowd/internal/platform"
	"icrowd/internal/qualify"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// The traced run replaces icrowd-server with the serve role below. It
// builds the same stack from the same public constructors the binary
// calls, and adds timing decorators around the server's HTTP handler and
// each project's core.Strategy. Spans are kept in memory and written out
// when the process is asked to stop.

// span is one timed call inside a traced process.
type span struct {
	// Trace is the 32-hex trace ID of the request the call served, empty
	// when no traced request could be named.
	Trace string `json:"t,omitempty"`
	Name  string `json:"n"`
	Start int64  `json:"s"` // Unix nanoseconds
	Dur   int64  `json:"d"` // nanoseconds
	// OK is RequestTask's second result on core.request_task spans.
	OK bool `json:"ok,omitempty"`
}

func (s span) end() int64 { return s.Start + s.Dur }

// spanLog holds a process's spans until it exits.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(trace, name string, start time.Time, ok bool) {
	sp := span{Trace: trace, Name: name, Start: start.UnixNano(), Dur: int64(time.Since(start)), OK: ok}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var sp span
		if err := dec.Decode(&sp); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, sp)
	}
}

// inflight names the traced request each (project, worker) is being
// served for, so strategy calls — which carry no context — can be charged
// to their request. A worker never has two requests in flight, and status
// reads (worker "") of one project share the request's trace only while
// it runs; the last registered request wins a collision.
type inflight struct {
	mu sync.Mutex
	m  map[string][]string
}

func inflightKey(project, worker string) string { return project + "\x00" + worker }

func (f *inflight) push(key, trace string) {
	f.mu.Lock()
	f.m[key] = append(f.m[key], trace)
	f.mu.Unlock()
}

func (f *inflight) pop(key, trace string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := f.m[key]
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i] == trace {
			ts = append(ts[:i], ts[i+1:]...)
			break
		}
	}
	if len(ts) == 0 {
		delete(f.m, key)
	} else {
		f.m[key] = ts
	}
}

func (f *inflight) get(key string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := f.m[key]
	if len(ts) == 0 {
		return ""
	}
	return ts[len(ts)-1]
}

// tracer records the spans of one traced process.
type tracer struct {
	log spanLog
	now inflight
}

func newTracer() *tracer { return &tracer{now: inflight{m: map[string][]string{}}} }

// classify names the endpoint of a request to the project API and the
// project and worker it concerns ("" where the endpoint has none).
func classify(r *http.Request, body []byte) (endpoint, project, worker string) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/projects/")
	if !ok {
		return "other", "", ""
	}
	project, endpoint, _ = strings.Cut(rest, "/")
	switch endpoint {
	case "":
		if r.Method == http.MethodPut {
			return "create", project, ""
		}
		return "other", project, ""
	case "assign":
		return endpoint, project, r.URL.Query().Get("workerId")
	case "submit":
		var req platform.SubmitRequest
		if json.Unmarshal(body, &req) == nil {
			worker = req.WorkerID
		}
		return endpoint, project, worker
	case "status", "results":
		return endpoint, project, ""
	}
	return "other", project, ""
}

// handler times every request as a span named "platform."+endpoint,
// charged to the trace its traceparent names (none for requests without
// one), and registers traced requests in flight so the strategy decorator
// can charge its calls to them.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var body []byte
		if r.Method == http.MethodPost && r.Body != nil {
			b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err == nil {
				body = b
				r.Body = io.NopCloser(bytes.NewReader(b))
			}
		}
		endpoint, project, worker := classify(r, body)
		trace, key := "", ""
		if pc, ok := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader)); ok {
			trace = pc.Trace.String()
			switch endpoint {
			case "create":
				key = inflightKey(project, "\x00create")
			case "assign", "submit", "status", "results":
				key = inflightKey(project, worker)
			}
		}
		if key != "" {
			t.now.push(key, trace)
		}
		h.ServeHTTP(w, r)
		if key != "" {
			t.now.pop(key, trace)
		}
		t.log.add(trace, "platform."+endpoint, start, false)
	})
}

// tracedStrategy times a project's strategy calls. It forwards
// ConcurrencySafe, so the platform calls it exactly as it calls the
// strategy inside: without the marker the platform would serialise every
// call and the traced run would measure a different program. Done and
// Name are trivial reads left untimed; their cost is part of the
// platform's self time.
type tracedStrategy struct {
	core.Strategy
	project string
	t       *tracer
}

func (s *tracedStrategy) ConcurrencySafe() bool {
	cs, ok := s.Strategy.(interface{ ConcurrencySafe() bool })
	return ok && cs.ConcurrencySafe()
}

func (s *tracedStrategy) RequestTask(worker string) (int, bool) {
	start := time.Now()
	id, ok := s.Strategy.RequestTask(worker)
	s.t.log.add(s.t.now.get(inflightKey(s.project, worker)), "core.request_task", start, ok)
	return id, ok
}

func (s *tracedStrategy) SubmitAnswer(worker string, taskID int, ans task.Answer) error {
	start := time.Now()
	err := s.Strategy.SubmitAnswer(worker, taskID, ans)
	s.t.log.add(s.t.now.get(inflightKey(s.project, worker)), "core.submit_answer", start, false)
	return err
}

func (s *tracedStrategy) Results() map[int]task.Answer {
	start := time.Now()
	res := s.Strategy.Results()
	s.t.log.add(s.t.now.get(inflightKey(s.project, "")), "core.results", start, false)
	return res
}

// serveConfig is the subset of icrowd-server's flags the workloads set.
type serveConfig struct {
	dataset  string
	strategy string
	k, q     int
	seed     int64
	dataDir  string // "" keeps named projects in memory
	fsync    int    // store.WithFsync: 0 never, 1 every append
}

// projectSeed derives a named project's strategy seed from the base seed
// exactly as cmd/icrowd-server does, so the traced run serves the same
// strategies.
func projectSeed(base int64, id string) int64 {
	if id == store.DefaultProject {
		return base
	}
	h := fnv.New64a()
	io.WriteString(h, id) //nolint:errcheck // hashes never fail
	return base ^ int64(h.Sum64()&math.MaxInt64)
}

// buildServer builds the platform server the way cmd/icrowd-server does
// for cfg. With t non-nil, every strategy is wrapped in tracedStrategy and
// the basis build, the factory calls and the strategy calls are recorded.
// The returned close function releases the store.
func buildServer(cfg serveConfig, t *tracer, logger *slog.Logger) (*platform.Server, func() error, error) {
	ds, _, err := experiments.LoadDataset(cfg.dataset, cfg.seed, 0)
	if err != nil {
		return nil, nil, err
	}
	bc := core.DefaultBasisConfig()
	bc.Seed = cfg.seed
	start := time.Now()
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		return nil, nil, err
	}
	if t != nil {
		t.log.add("", "ppr.basis_build", start, false)
	}
	newStrategy := func(seed int64) (core.Strategy, error) {
		switch cfg.strategy {
		case "icrowd":
			c := core.DefaultConfig()
			c.K, c.Q, c.Mode, c.Seed = cfg.k, cfg.q, core.ModeAdapt, seed
			return core.New(ds, basis, c)
		case "randommv":
			qual, err := qualify.Select(qualify.InfQF, basis, cfg.q, seed)
			if err != nil {
				return nil, err
			}
			return baseline.NewRandomMV(ds, cfg.k, qual, seed)
		}
		return nil, fmt.Errorf("serve: unsupported strategy %q", cfg.strategy)
	}
	wrap := func(id string, st core.Strategy) core.Strategy {
		if t == nil {
			return st
		}
		return &tracedStrategy{Strategy: st, project: id, t: t}
	}
	st, err := newStrategy(cfg.seed)
	if err != nil {
		return nil, nil, err
	}

	var pstore *store.ProjectStore
	var opts []platform.ServerOption
	if cfg.dataDir != "" {
		pstore, err = store.OpenProjects(cfg.dataDir, store.WithFsync(cfg.fsync))
		if err != nil {
			return nil, nil, err
		}
		backend, _, err := pstore.Project(store.DefaultProject)
		if err != nil {
			pstore.Close()
			return nil, nil, err
		}
		opts = append(opts, platform.WithBackend(backend))
	}
	srv := platform.NewServer(wrap(store.DefaultProject, st), ds, opts...)
	srv.SetLogger(logger)
	srv.Health().AddCheck("basis", func() error {
		if basis.N() != ds.Len() {
			return fmt.Errorf("basis not loaded for %d tasks", ds.Len())
		}
		return nil
	})
	factory := func(id string) (core.Strategy, error) {
		start := time.Now()
		st, err := newStrategy(projectSeed(cfg.seed, id))
		if t != nil {
			t.log.add(t.now.get(inflightKey(id, "\x00create")), "core.new", start, false)
		}
		if err != nil {
			return nil, err
		}
		return wrap(id, st), nil
	}
	if _, err := srv.EnableProjects(pstore, factory); err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, srv.Close, nil
}

// parseFsync maps an -fsync flag value to store.WithFsync's argument, as
// cmd/icrowd-server does.
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

// serveMain is the traced stand-in for icrowd-server.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cfg := serveConfig{}
	fs.StringVar(&cfg.dataset, "dataset", "ItemCompare", "dataset")
	fs.StringVar(&cfg.strategy, "strategy", "icrowd", "strategy: icrowd or randommv")
	fs.IntVar(&cfg.k, "k", 3, "assignment size per microtask")
	fs.IntVar(&cfg.q, "q", 10, "qualification microtasks")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "multi-project data directory")
	fsync := fs.String("fsync", "never", "event-log fsync policy: never, always, or N")
	out := fs.String("trace-out", "", "file the spans are written to on exit (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	n, err := parseFsync(*fsync)
	if err != nil || *out == "" {
		fmt.Fprintln(os.Stderr, "serve: need a valid -fsync and -trace-out")
		return 2
	}
	cfg.fsync = n
	logger, err := obsv.NewLoggerFromFlags("text", "info", obsv.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	t := newTracer()
	srv, closeSrv, err := buildServer(cfg, t, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	stopRuntime := obsv.StartRuntime(obsv.Default(), 0)
	defer stopRuntime()
	code := serveUntilSignal(*addr, t.handler(srv.Handler()))
	if err := closeSrv(); err != nil {
		fmt.Fprintln(os.Stderr, "serve: close:", err)
		code = 1
	}
	if err := t.log.writeFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		code = 1
	}
	return code
}

// serveUntilSignal serves h on addr until SIGTERM or SIGINT, then drains
// in-flight requests. It returns the process exit code.
func serveUntilSignal(addr string, h http.Handler) int {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	hs := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "listen:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			return 1
		}
		return 0
	}
}
