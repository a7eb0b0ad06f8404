// Package platform implements the Appendix-A deployment architecture: AMT
// has no targeted assignment, so iCrowd runs its own web server and AMT
// HITs carry only an ExternalQuestion URL. When a worker accepts a HIT, AMT
// calls the server with the worker's identity, the server picks the
// microtask (taking full control of assignment), and the submitted answer
// flows back to the server.
//
// The package provides that web server over any core.Strategy, a typed HTTP
// client with retry, and simulated AMT worker agents (well-behaved and
// faulty) that drive the loop end-to-end.
//
// # API surface
//
// Every endpoint is mounted under the versioned prefix /v1 (the canonical
// paths: /v1/assign, /v1/submit, /v1/inactive, /v1/status, /v1/results) and
// under the legacy unversioned aliases the seed shipped with. Both
// spellings are served by the same handlers and return byte-identical
// payloads. Every error the server produces itself — including unknown
// paths (404) and wrong methods (405) — is a typed JSON ErrorResponse.
//
// # Failure model
//
// Real crowd traffic is not well-behaved, so the server is defensive on
// three fronts. Assignments carry leases: a worker who vanishes without
// signalling /inactive has their assignment reclaimed by a sweeper once the
// lease expires, so no microtask is pinned forever. Submits are idempotent:
// the idempotency key is (worker, task), a duplicate /submit is
// acknowledged without double-counting, and /assign redelivers the worker's
// current task instead of failing when a response was lost in flight.
// Log appends are write-ahead where possible and surfaced as 503 (typed
// code "log_write_failed") when durability is compromised, never silently
// dropped.
//
// The fourth front is overload: with SetAdmission the write endpoints run
// behind a bounded in-flight gate and wait queue, with SetWorkerRateLimit
// each worker is held to a token-bucket budget, and everything beyond
// capacity is shed with a typed 429 (codes "overloaded",
// "admission_timeout", "throttled") carrying a Retry-After hint — never a
// 5xx. Sustained saturation is reported by /v1/readyz as status
// "degraded" while the probe stays 200: shedding is the policy working,
// not an outage. Both protections are off by default.
//
// # Concurrency
//
// Strategies that advertise ConcurrencySafe() == true (core.ICrowd) are
// called without any server-side serialization: requests from different
// workers run strategy code in parallel, bounded only by the strategy's own
// sharded locking. Per-worker operations are still serialized through a
// striped mutex so the idempotency bookkeeping (held/seen/accepted) stays
// exact for concurrent retries of the same worker. Strategies without the
// marker — the single-threaded baselines — keep the seed behaviour: every
// strategy call is serialized behind one mutex.
//
// Attaching a durable log narrows the parallelism: each strategy mutation
// and its log append are serialized as one unit so the log's event order
// matches the order mutations were applied, which is what store.Replay
// needs to reconstruct the exact live state after a crash. Reads (/status,
// /results) stay parallel either way.
package platform

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"icrowd/internal/core"
	"icrowd/internal/obsv"
	"icrowd/internal/sim"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// AssignResponse is returned by GET /v1/assign.
type AssignResponse struct {
	// Done is true when the whole job is finished (no task assigned).
	Done bool `json:"done"`
	// Assigned is true when TaskID/Text are valid.
	Assigned bool `json:"assigned"`
	// TaskID is the assigned microtask.
	TaskID int `json:"taskId"`
	// Text is the microtask question shown in the HIT iframe.
	Text string `json:"text"`
	// Redelivered is true when the worker already held this task (e.g. the
	// original /assign response was lost and the client retried); no new
	// assignment was made.
	Redelivered bool `json:"redelivered,omitempty"`
	// HITRemaining is how many more microtasks remain in the worker's
	// current HIT batch (only meaningful when the server tracks HITs).
	HITRemaining int `json:"hitRemaining,omitempty"`
}

// SubmitRequest is the body of POST /v1/submit.
type SubmitRequest struct {
	WorkerID string `json:"workerId"`
	TaskID   int    `json:"taskId"`
	// Answer is "YES" or "NO".
	Answer string `json:"answer"`
}

// SubmitResponse is returned by POST /v1/submit.
type SubmitResponse struct {
	Accepted bool `json:"accepted"`
	// Duplicate is true when this (worker, task) pair had already been
	// accepted: the submit is acknowledged idempotently and nothing was
	// double-counted.
	Duplicate bool `json:"duplicate,omitempty"`
}

// InactiveRequest is the optional JSON body of POST /v1/inactive (the
// worker may equally be named via the workerId query parameter).
type InactiveRequest struct {
	WorkerID string `json:"workerId"`
}

// StatusResponse is returned by GET /v1/status.
type StatusResponse struct {
	Strategy  string `json:"strategy"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Done      bool   `json:"done"`
	// Pending is the number of workers currently holding an assignment.
	Pending int `json:"pending"`
	// HITs / Submitted / CostUSD report the HIT economics when the server
	// tracks them (Section 6.1: batches of 10 at $0.10 per assignment).
	HITs      int     `json:"hits,omitempty"`
	Submitted int     `json:"submitted,omitempty"`
	CostUSD   float64 `json:"costUsd,omitempty"`
}

// ResultsResponse is returned by GET /v1/results.
type ResultsResponse struct {
	// Results maps task ID -> "YES"/"NO"/"NONE".
	Results map[int]string `json:"results"`
}

// heldTask is a worker's outstanding assignment as the server tracks it
// (mirroring the strategy's pending state, plus the lease deadline).
type heldTask struct {
	Task     int
	Deadline time.Time // zero when leases are disabled
}

// workerStripes is the size of the per-worker mutex stripe array. Requests
// for the same worker always hash to the same stripe and are serialized;
// requests for different workers almost always proceed in parallel.
const workerStripes = 64

// Server exposes one or more projects — each a core.Strategy with its own
// durable backend, lease state and idempotency bookkeeping — over HTTP.
// The default project answers the classic /v1/* (and legacy unversioned)
// routes; named projects are served under /v1/projects/{id}/* (see
// project.go).
//
// Locking: per-worker request handling is serialized through the workers
// stripe, keyed by (project, worker). Strategy calls are direct when a
// project's strategy advertises ConcurrencySafe() == true, and serialized
// behind the project's stMu otherwise. Each project's mu guards only its
// own bookkeeping maps and is never held across a strategy call or a
// backend append; the server's mu guards the shared clock and lease
// configuration and never nests inside a project lock.
type Server struct {
	ds *task.Dataset

	// def is the default project — always present, always routed.
	def *project
	// pmu guards the projects map; the map only grows.
	pmu      sync.RWMutex
	projects map[string]*project
	// createMu serializes project creation/resume so a project is opened,
	// replayed and registered exactly once.
	createMu sync.Mutex
	// pstore and factory enable named projects (EnableProjects): the store
	// supplies per-project backends, the factory fresh strategy instances.
	pstore  *store.ProjectStore
	factory StrategyFactory

	// workers stripes the per-(project, worker) critical sections.
	workers [workerStripes]sync.Mutex

	mu    sync.Mutex // guards the fields below
	lease time.Duration
	now   func() time.Time

	// sweepEvery is the interval the running lease sweeper was started
	// with (zero when no sweeper runs); the readiness probe uses it to
	// judge heartbeat freshness.
	sweepEvery time.Duration

	// adm, when non-nil, is the bounded admission gate the write endpoints
	// pass through; limiter, when non-nil, applies the per-worker token
	// buckets; reqTimeout, when > 0, is the server-side deadline stamped
	// into every write request's context. All three are configured before
	// the server takes traffic (SetAdmission, SetWorkerRateLimit) and
	// read-only afterwards.
	adm        *admission
	limiter    *WorkerLimiter
	reqTimeout time.Duration

	// obs holds the server's metric instruments (metrics.go); tracer is the
	// per-request span ring behind /v1/trace and X-Request-Id; logger is
	// the structured logger (SetLogger); health is the probe surface behind
	// /v1/healthz and /v1/readyz; slo is the burn-rate engine behind
	// /v1/slo (nil until SetSLO, sloCfg remembers the configuration across
	// UseRegistry rebinds). All are set before the server takes traffic and
	// read-only afterwards.
	obs    *serverMetrics
	tracer *obsv.Tracer
	logger *slog.Logger
	health *obsv.Health
	slo    *obsv.SLOEngine
	sloCfg SLOConfig
	pprof  bool
}

// project is one served project: a strategy plus everything the server
// tracks around it. The default project and every named project are the
// same type driven by the same handlers, which is what keeps the legacy
// single-project routes byte-identical to the project-scoped ones.
type project struct {
	id string
	st core.Strategy
	// concSafe caches the strategy's ConcurrencySafe marker.
	concSafe bool
	// backend, when non-nil, is the project's durable event log. It is
	// bound at construction (WithBackend, EnableProjects/CreateProject)
	// and immutable afterwards — there is no live swap.
	backend *store.Log

	// stMu serializes strategy calls for strategies that are not
	// concurrency-safe (the single-threaded baselines).
	stMu sync.Mutex
	// logMu serializes the (strategy mutation, backend append) pair
	// whenever a backend is bound, so the event order always matches the
	// order the mutations were applied — the invariant store.Replay needs
	// to reconstruct the exact live state. Without a backend there is no
	// order to preserve and mutations from different workers run in
	// parallel.
	logMu sync.Mutex

	mu   sync.Mutex // guards the fields below
	acct *Accounting
	// held mirrors the strategy's pending assignments so the server can
	// redeliver idempotently, validate submits cheaply, and sweep leases.
	held map[string]heldTask
	// seen records every worker that has ever been assigned a task.
	seen map[string]bool
	// accepted records acknowledged submits per worker and task (the
	// idempotency index): worker -> task -> answer.
	accepted map[string]map[int]string

	// pm holds the project-labelled instruments (metrics.go).
	pm *projectMetrics
}

// ServerOption configures a Server at construction, matching core.New's
// functional-options style.
type ServerOption func(*Server)

// WithBackend binds the default project's durable event log at
// construction: every assignment, submission and worker departure is
// appended, so a restarted server can rebuild its state with store.Replay
// over a fresh strategy. Binding at construction (rather than a mutable
// setter) means the log reference is immutable once the server takes
// traffic — there is no swap-a-log race surface.
func WithBackend(b *store.Log) ServerOption {
	return func(s *Server) { s.def.backend = b }
}

// WithAccounting enables HIT batching and payment tracking for the default
// project at construction (equivalent to SetAccounting).
func WithAccounting(a *Accounting) ServerOption {
	return func(s *Server) { s.def.acct = a }
}

// StrategyFactory builds a fresh strategy instance for a named project.
// It MUST be deterministic per project id — resume replays the project's
// event log through a freshly built strategy, which only reconstructs the
// same state when the factory rebuilds the same strategy.
type StrategyFactory func(projectID string) (core.Strategy, error)

// NewServer wraps the strategy and its dataset as the default project.
// Strategies implementing ConcurrencySafe() true are called concurrently;
// everything else keeps the seed's fully-serialized behaviour.
func NewServer(st core.Strategy, ds *task.Dataset, opts ...ServerOption) *Server {
	s := &Server{
		ds:     ds,
		now:    time.Now,
		obs:    newServerMetrics(obsv.Default()),
		tracer: obsv.NewTracer(0),
		logger: defaultLogger(),
	}
	s.def = s.newProject(store.DefaultProject, st)
	s.projects = map[string]*project{store.DefaultProject: s.def}
	for _, o := range opts {
		o(s)
	}
	s.initHealth(obsv.Default())
	return s
}

// newProject builds the bookkeeping shell around a strategy.
func (s *Server) newProject(id string, st core.Strategy) *project {
	cs, ok := st.(interface{ ConcurrencySafe() bool })
	return &project{
		id:       id,
		st:       st,
		concSafe: ok && cs.ConcurrencySafe(),
		held:     map[string]heldTask{},
		seen:     map[string]bool{},
		accepted: map[string]map[int]string{},
		pm:       newProjectMetrics(s.obs.reg, id),
	}
}

// lookup returns the named project, or nil.
func (s *Server) lookup(id string) *project {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.projects[id]
}

// snapshotProjects returns the current projects, default first, the rest
// sorted by id (a stable order for sweeps and health checks).
func (s *Server) snapshotProjects() []*project {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	out := make([]*project, 0, len(s.projects))
	out = append(out, s.def)
	ids := make([]string, 0, len(s.projects))
	for id := range s.projects {
		if id != s.def.id {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, s.projects[id])
	}
	return out
}

// Close closes every project backend (and the project store, when one is
// attached). Call after the HTTP server has drained.
func (s *Server) Close() error {
	var first error
	if s.pstore != nil {
		// The store owns every backend it opened, including any it handed
		// to projects; closing it closes them all (idempotently).
		first = s.pstore.Close()
	}
	for _, p := range s.snapshotProjects() {
		if p.backend == nil {
			continue
		}
		if err := p.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// defaultLogger matches the stdlib logger's historical behaviour —
// human-readable lines on stderr, info level — until SetLogger installs
// the binary's -log-format/-log-level configuration.
func defaultLogger() *slog.Logger {
	l, err := obsv.NewLogger(obsv.LogOptions{Registry: obsv.Default()})
	if err != nil { // unreachable: the zero options are valid
		return obsv.NopLogger()
	}
	return l
}

// lockWorker acquires the stripe serializing this (project, worker)'s
// requests and returns it for the caller to unlock.
func (s *Server) lockWorker(p *project, worker string) *sync.Mutex {
	h := fnv.New32a()
	io.WriteString(h, p.id)
	h.Write([]byte{0})
	io.WriteString(h, worker)
	m := &s.workers[h.Sum32()%workerStripes]
	m.Lock()
	return m
}

// strategyLock serializes strategy calls for non-concurrency-safe
// strategies (no-op for core.ICrowd, which locks internally).
func (p *project) strategyLock() {
	if !p.concSafe {
		p.stMu.Lock()
	}
}

func (p *project) strategyUnlock() {
	if !p.concSafe {
		p.stMu.Unlock()
	}
}

// withLogOrder runs fn under the project's logMu when a backend is bound,
// keeping strategy mutations and their logged events in one total order
// for replay.
func (p *project) withLogOrder(fn func()) {
	if p.backend != nil {
		p.logMu.Lock()
		defer p.logMu.Unlock()
	}
	fn()
}

// SetAdmission enables overload protection on the write endpoints
// (/assign, /submit, /inactive): at most cfg.MaxInFlight requests run
// concurrently, at most cfg.QueueDepth wait for a slot, and everything
// beyond that is shed with a typed 429 and Retry-After. It also registers
// the "admission_queue" degraded readiness check: /v1/readyz keeps
// answering 200 under overload (shedding IS the policy working) but
// reports status "degraded" once the queue has been saturated for
// cfg.DegradedWindow. Call before the server takes traffic; MaxInFlight
// <= 0 disables admission control (the seed behaviour).
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	if cfg.MaxInFlight <= 0 {
		s.adm = nil
		s.reqTimeout = cfg.RequestTimeout
		return
	}
	s.adm = newAdmission(cfg, s.clockNow, s.obs)
	s.reqTimeout = cfg.RequestTimeout
	s.registerAdmissionCheck()
}

// registerAdmissionCheck installs the "admission_queue" degraded readiness
// check on the current probe surface (re-run by initHealth when
// UseRegistry rebuilds it).
func (s *Server) registerAdmissionCheck() {
	adm := s.adm
	s.health.AddDegradedCheck("admission_queue", func() error {
		if adm.Degraded(s.clockNow()) {
			return errors.New("admission queue saturated: shedding sustained beyond the degraded window")
		}
		return nil
	})
}

// SetWorkerRateLimit enables the per-worker token bucket on the write
// endpoints: each worker sustains at most cfg.Rate requests/second with
// bursts up to cfg.Burst, and requests beyond that are rejected with a
// typed 429 and Retry-After — the Zipf hot worker is slowed instead of
// being allowed to starve the rest of the crowd. Call before the server
// takes traffic; cfg.Rate <= 0 disables the limiter.
func (s *Server) SetWorkerRateLimit(cfg RateLimit) {
	if cfg.Rate <= 0 {
		s.limiter = nil
		return
	}
	s.limiter = NewWorkerLimiter(cfg, 0)
}

// admitted wraps a write-endpoint handler in the overload-protection
// layer: the server-side request deadline is stamped into the context,
// admission is acquired (or the request shed with a typed 429), and a
// request whose budget expired while queued is shed before the handler
// runs. Read endpoints (/status, /results) stay outside the gate — they
// take no strategy write locks and starving probes of them would only
// blind operators during the exact incident they need visibility into.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.adm != nil {
			res, retryAfter := s.adm.acquire(r.Context())
			switch res {
			case shedQueueFull:
				s.writeShed(r, w, CodeOverloaded,
					"admission queue full; retry after backing off", retryAfter)
				return
			case shedDeadline:
				s.writeShed(r, w, CodeAdmissionTimeout,
					"request deadline expired while waiting for admission", retryAfter)
				return
			}
			defer s.adm.release()
		}
		if err := r.Context().Err(); err != nil {
			// The budget burnt down between admission and here; shed
			// before any strategy work or lock acquisition.
			s.writeShed(r, w, CodeAdmissionTimeout,
				"request deadline expired before work started", s.shedHint())
			return
		}
		h(w, r)
	}
}

// shedHint is the Retry-After for deadline sheds outside the admission
// path (admission disabled but a request timeout set).
func (s *Server) shedHint() time.Duration {
	if s.adm != nil {
		return s.adm.retryAfterHint()
	}
	return time.Second
}

// allowWorker applies the per-worker token bucket once the handler knows
// which worker is asking. It writes the typed 429 and returns false when
// the worker is over budget.
func (s *Server) allowWorker(r *http.Request, w http.ResponseWriter, worker string) bool {
	ok, retryAfter := s.limiter.Allow(worker, s.clockNow())
	if ok {
		return true
	}
	s.obs.throttled.Inc()
	s.writeShed(r, w, CodeThrottled,
		"worker "+worker+" exceeded the per-worker rate limit", retryAfter)
	return false
}

// SetAccounting enables HIT batching and payment tracking (Section 6.1)
// for the default project.
func (s *Server) SetAccounting(a *Accounting) {
	s.def.mu.Lock()
	s.def.acct = a
	s.def.mu.Unlock()
}

// Handler returns the HTTP routes: every endpoint under the canonical /v1
// prefix plus the legacy unversioned alias, and a typed JSON 404 for
// everything else. Each endpoint is wrapped once in the observability
// middleware (metrics.go), shared by both mounts, so the legacy alias
// stays byte-identical to /v1. The observability endpoints themselves
// (/v1/metrics, /v1/trace, and /debug/pprof/ when enabled) exist only
// under their canonical paths — they are new in v1 and get no alias.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The write endpoints mutate strategy state and funnel into its mutex
	// sections, so they pass through the admission gate; the reads stay
	// ungated (see admitted).
	writeEndpoints := map[string]bool{"assign": true, "submit": true, "inactive": true}
	for name, ph := range map[string]projectHandler{
		"assign":   s.handleAssign,
		"submit":   s.handleSubmit,
		"inactive": s.handleInactive,
		"status":   s.handleStatus,
		"results":  s.handleResults,
	} {
		// Single-project mounts: /v1/<name> and the legacy unversioned
		// alias both serve the default project through the same wrapped
		// handler, so the alias stays byte-identical to /v1.
		h := s.bindProject(s.def, ph)
		if writeEndpoints[name] {
			h = s.admitted(h)
		}
		wrapped := s.instrument(name, h)
		mux.HandleFunc("/v1/"+name, wrapped)
		mux.HandleFunc("/"+name, wrapped) // legacy unversioned alias

		// Project-scoped mount: the same handler resolved against the
		// path's {project}, 404 (typed "project_not_found") when unknown.
		p := s.withProject(ph)
		if writeEndpoints[name] {
			p = s.admitted(p)
		}
		mux.HandleFunc("/v1/projects/{project}/"+name, s.instrument(name, p))
	}
	mux.HandleFunc("/v1/projects", s.instrument("projects", s.handleProjectList))
	mux.HandleFunc("/v1/projects/{project}", s.instrument("projects", s.handleProjectRoot))
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/trace/{traceid}", s.handleTraceByID)
	mux.HandleFunc("/v1/slo", s.handleSLO)
	mux.Handle("/v1/healthz", s.health.LivenessHandler())
	mux.Handle("/v1/readyz", s.health.ReadinessHandler())
	if s.pprof {
		obsv.MountPprof(mux)
	}
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

// projectHandler is an endpoint handler parameterized by the project it
// operates on — the same function serves the default mounts and every
// /v1/projects/{id}/ mount.
type projectHandler func(p *project, w http.ResponseWriter, r *http.Request)

// bindProject fixes a projectHandler to one project.
func (s *Server) bindProject(p *project, ph projectHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { ph(p, w, r) }
}

// withProject resolves {project} from the request path and dispatches, or
// answers a typed 404 when the project does not exist.
func (s *Server) withProject(ph projectHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("project")
		p := s.lookup(id)
		if p == nil {
			s.writeError(r, w, http.StatusNotFound, CodeProjectNotFound, "no such project: "+id)
			return
		}
		ph(p, w, r)
	}
}

// handleNotFound is the fallback for unknown paths: a typed JSON envelope
// instead of net/http's plain-text 404.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(r, w, http.StatusNotFound, CodeNotFound, "no such endpoint: "+r.URL.Path)
}

func (s *Server) handleAssign(p *project, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	worker := r.URL.Query().Get("workerId")
	if worker == "" {
		s.writeError(r, w, http.StatusBadRequest, CodeBadRequest, "workerId required")
		return
	}
	if !s.allowWorker(r, w, worker) {
		return
	}
	wl := s.lockWorker(p, worker)
	defer wl.Unlock()
	// The lease deadline comes from the server clock (s.mu); compute it
	// before taking p.mu so the two locks never nest.
	dl := s.deadline()
	p.mu.Lock()
	if h, ok := p.held[worker]; ok {
		// Idempotent redelivery: the worker already holds a task (their
		// original /assign response may have been lost). Renew the lease,
		// return the same task, log nothing.
		h.Deadline = dl
		p.held[worker] = h
		acct := p.acct
		p.mu.Unlock()
		s.obs.redelivered.Inc()
		resp := AssignResponse{Assigned: true, TaskID: h.Task, Text: s.ds.Tasks[h.Task].Text, Redelivered: true}
		if acct != nil {
			resp.HITRemaining = acct.Remaining(worker)
		}
		s.writeJSON(r, w, resp)
		return
	}
	p.mu.Unlock()
	var (
		tid      int
		assigned bool
		done     bool
		logErr   error
	)
	// The strategy's task-selection work (for ICrowd: the scheme lookup and
	// assignment bookkeeping) gets its own child span under the request; the
	// durable append nests as a sibling so trace trees separate compute time
	// from log latency.
	ssp := s.tracer.Child(r.Context(), "strategy.assign")
	p.withLogOrder(func() {
		p.strategyLock()
		if p.st.Done() {
			p.strategyUnlock()
			done = true
			return
		}
		var ok bool
		tid, ok = p.st.RequestTask(worker)
		if !ok {
			done = p.st.Done()
			p.strategyUnlock()
			return
		}
		p.strategyUnlock()
		if p.backend != nil {
			lsp := s.tracer.Child(r.Context(), "log.append")
			err := p.backend.AppendAssign(worker, tid)
			lsp.End()
			if err != nil {
				// Roll the uncommitted assignment back so the strategy and
				// the log stay consistent, then report lost durability.
				p.strategyLock()
				p.st.WorkerInactive(worker)
				p.strategyUnlock()
				logErr = err
				return
			}
		}
		assigned = true
	})
	ssp.Annotate("worker=" + worker)
	ssp.End()
	if logErr != nil {
		s.obs.logFailures.Inc()
		s.writeError(r, w, http.StatusServiceUnavailable, CodeLogWrite, logErr.Error())
		return
	}
	if !assigned {
		s.writeJSON(r, w, AssignResponse{Done: done})
		return
	}
	p.mu.Lock()
	p.seen[worker] = true
	p.held[worker] = heldTask{Task: tid, Deadline: dl}
	acct := p.acct
	p.pm.events(store.EventAssign)
	p.pm.setPending(len(p.held))
	p.mu.Unlock()
	resp := AssignResponse{Assigned: true, TaskID: tid, Text: s.ds.Tasks[tid].Text}
	if acct != nil {
		resp.HITRemaining = acct.OnAssign(worker)
	}
	s.writeJSON(r, w, resp)
}

func (s *Server) handleSubmit(p *project, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeError(r, w, http.StatusBadRequest, CodeBadRequest, "bad json: "+err.Error())
		return
	}
	ans, err := parseAnswer(req.Answer)
	if err != nil {
		s.writeError(r, w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if req.WorkerID == "" {
		s.writeError(r, w, http.StatusBadRequest, CodeBadRequest, "workerId required")
		return
	}
	if !s.allowWorker(r, w, req.WorkerID) {
		return
	}
	wl := s.lockWorker(p, req.WorkerID)
	defer wl.Unlock()
	p.mu.Lock()
	if _, dup := p.accepted[req.WorkerID][req.TaskID]; dup {
		p.mu.Unlock()
		// Idempotent acknowledgement: this (worker, task) was already
		// counted; a retried submit must not double-count into consensus
		// or accuracy estimates.
		s.obs.duplicates.Inc()
		s.writeJSON(r, w, SubmitResponse{Accepted: true, Duplicate: true})
		return
	}
	h, holds := p.held[req.WorkerID]
	p.mu.Unlock()
	if !holds || h.Task != req.TaskID {
		s.writeError(r, w, http.StatusConflict, CodeNoPending,
			"worker does not hold this task (never assigned, or the lease expired)")
		return
	}
	// Write-ahead: the submit is durable before it mutates the strategy,
	// so a replayed log never contains an un-applied suffix.
	var logErr error
	p.withLogOrder(func() {
		if p.backend != nil {
			lsp := s.tracer.Child(r.Context(), "log.append")
			e := p.backend.AppendSubmit(req.WorkerID, req.TaskID, ans)
			lsp.End()
			if e != nil {
				logErr = e
				return
			}
		}
		// SubmitAnswer is where ICrowd folds the answer into the estimator
		// and recomputes the affected assignment scheme — the hottest
		// sub-operation on the submit path, so it gets its own span.
		rsp := s.tracer.Child(r.Context(), "scheme.recompute")
		p.strategyLock()
		err = p.st.SubmitAnswer(req.WorkerID, req.TaskID, ans)
		p.strategyUnlock()
		rsp.End()
	})
	if logErr != nil {
		s.obs.logFailures.Inc()
		s.writeError(r, w, http.StatusServiceUnavailable, CodeLogWrite, logErr.Error())
		return
	}
	if err != nil {
		// held mirrors the strategy's pending state, so this indicates a
		// server bug (the event is already logged).
		s.writeError(r, w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	p.mu.Lock()
	delete(p.held, req.WorkerID)
	p.markAcceptedLocked(req.WorkerID, req.TaskID, ans.String())
	acct := p.acct
	p.pm.events(store.EventSubmit)
	p.pm.setPending(len(p.held))
	p.mu.Unlock()
	if acct != nil {
		acct.OnSubmit()
	}
	s.writeJSON(r, w, SubmitResponse{Accepted: true})
}

func (p *project) markAcceptedLocked(worker string, taskID int, answer string) {
	m, ok := p.accepted[worker]
	if !ok {
		m = map[int]string{}
		p.accepted[worker] = m
	}
	m[taskID] = answer
}

// handleInactive implements POST /v1/inactive: AMT signals that a worker
// returned or abandoned their HIT; the strategy releases the assignment.
// The worker may be named via the workerId query parameter or a JSON body.
func (s *Server) handleInactive(p *project, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	worker := r.URL.Query().Get("workerId")
	if worker == "" {
		var req InactiveRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err == nil {
			worker = req.WorkerID
		}
	}
	if worker == "" {
		s.writeError(r, w, http.StatusBadRequest, CodeBadRequest,
			"workerId required (query parameter or JSON body)")
		return
	}
	if !s.allowWorker(r, w, worker) {
		return
	}
	wl := s.lockWorker(p, worker)
	defer wl.Unlock()
	p.mu.Lock()
	known := p.seen[worker]
	p.mu.Unlock()
	if !known {
		s.writeError(r, w, http.StatusBadRequest, CodeUnknownWorker,
			"worker "+worker+" has never been assigned a task")
		return
	}
	// Write-ahead, as in handleSubmit.
	var logErr error
	p.withLogOrder(func() {
		if p.backend != nil {
			lsp := s.tracer.Child(r.Context(), "log.append")
			e := p.backend.AppendInactive(worker)
			lsp.End()
			if e != nil {
				logErr = e
				return
			}
		}
		p.strategyLock()
		p.st.WorkerInactive(worker)
		p.strategyUnlock()
	})
	if logErr != nil {
		s.obs.logFailures.Inc()
		s.writeError(r, w, http.StatusServiceUnavailable, CodeLogWrite, logErr.Error())
		return
	}
	p.mu.Lock()
	delete(p.held, worker)
	acct := p.acct
	p.pm.events(store.EventInactive)
	p.pm.setPending(len(p.held))
	p.mu.Unlock()
	if acct != nil {
		acct.OnInactive(worker)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatus(p *project, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	p.strategyLock()
	results := p.st.Results()
	name := p.st.Name()
	done := p.st.Done()
	p.strategyUnlock()
	completed := 0
	for _, a := range results {
		if a != task.None {
			completed++
		}
	}
	p.mu.Lock()
	pending := len(p.held)
	acct := p.acct
	p.mu.Unlock()
	resp := StatusResponse{
		Strategy:  name,
		Total:     s.ds.Len(),
		Completed: completed,
		Done:      done,
		Pending:   pending,
	}
	if acct != nil {
		resp.HITs = acct.HITs()
		resp.Submitted = acct.Submitted()
		resp.CostUSD = acct.CostUSD()
	}
	s.writeJSON(r, w, resp)
}

func (s *Server) handleResults(p *project, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	p.strategyLock()
	res := p.st.Results()
	p.strategyUnlock()
	out := ResultsResponse{Results: make(map[int]string, len(res))}
	for t, a := range res {
		out.Results[t] = a.String()
	}
	s.writeJSON(r, w, out)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func parseAnswer(s string) (task.Answer, error) {
	switch s {
	case "YES":
		return task.Yes, nil
	case "NO":
		return task.No, nil
	default:
		return task.None, errors.New("platform: answer must be YES or NO, got " + s)
	}
}

// WorkerAgent simulates one AMT worker hammering the server: request,
// answer from the latent profile, submit, repeat. Client may be a *Client
// (default project) or a *ProjectClient (one named project) — the agent
// drives whichever project its client is scoped to.
type WorkerAgent struct {
	Client  ClientAPI
	Profile *sim.Profile
	Dataset *task.Dataset
	Rng     *rand.Rand
}

// Step performs one request/submit round. It returns false when the server
// had nothing for this worker (job done or worker rejected).
func (a *WorkerAgent) Step(ctx context.Context) (bool, error) {
	res, err := a.Client.Assign(ctx, a.Profile.ID)
	if err != nil {
		return false, err
	}
	if !res.Assigned {
		return false, nil
	}
	if res.TaskID < 0 || res.TaskID >= a.Dataset.Len() {
		return false, errors.New("platform: server assigned unknown task")
	}
	ans := sim.Answer(a.Profile, &a.Dataset.Tasks[res.TaskID], a.Rng)
	if err := a.Client.Submit(ctx, a.Profile.ID, res.TaskID, ans); err != nil {
		return false, err
	}
	return true, nil
}

// RunWorkers drives the pool against baseURL until the job is done, every
// worker has performed maxSteps rounds, or ctx is cancelled. Workers run
// concurrently, one goroutine each, mirroring independent humans on AMT.
func RunWorkers(ctx context.Context, baseURL string, ds *task.Dataset, pool []sim.Profile, maxSteps int, seed int64) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(pool))
	for i := range pool {
		wg.Add(1)
		go func(p *sim.Profile, workerSeed int64) {
			defer wg.Done()
			agent := &WorkerAgent{
				Client:  &Client{BaseURL: baseURL},
				Profile: p,
				Dataset: ds,
				Rng:     rand.New(rand.NewSource(workerSeed)),
			}
			idle := 0
			for step := 0; step < maxSteps; step++ {
				if ctx.Err() != nil {
					errCh <- ctx.Err()
					return
				}
				ok, err := agent.Step(ctx)
				if err != nil {
					errCh <- err
					return
				}
				if !ok {
					idle++
					if idle >= 3 {
						return // job done or nothing for this worker
					}
					continue
				}
				idle = 0
			}
		}(&pool[i], seed+int64(i))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}
