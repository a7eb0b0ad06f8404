package platform

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/store"
)

// endpointNames are the canonical v1 endpoints ("projects" covers the
// project list/create routes); metrics for each are pre-registered so a
// scrape sees every series from the first request on, zeros included.
var endpointNames = []string{"assign", "submit", "inactive", "status", "results", "projects"}

// statusClasses are the response-class labels of
// icrowd_http_responses_total, indexed by status/100 - 2.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// endpointMetrics are the per-endpoint instruments the middleware records.
type endpointMetrics struct {
	requests *obsv.Counter
	latency  *obsv.Histogram
	classes  [4]*obsv.Counter // indexed by status/100 - 2
}

// serverMetrics bundles every instrument the platform server records. A
// nil registry yields nil instruments throughout, turning the whole layer
// into no-ops without a second code path.
type serverMetrics struct {
	reg       *obsv.Registry
	endpoints map[string]*endpointMetrics

	leaseExpired *obsv.Counter
	redelivered  *obsv.Counter
	duplicates   *obsv.Counter
	logFailures  *obsv.Counter
	encodeErrors *obsv.Counter
	// sweepHB is beaten by every lease-sweeper pass; the readiness probe
	// checks its freshness and the bound gauge exports the last sweep time.
	sweepHB *obsv.Heartbeat

	// Overload-protection instruments (admission.go, ratelimit.go).
	queueDepth          *obsv.Gauge
	inflight            *obsv.Gauge
	admissionWait       *obsv.Histogram
	shedFull            *obsv.Counter
	shedDeadline        *obsv.Counter
	throttled           *obsv.Counter
	overloadTransitions *obsv.Counter
}

func newServerMetrics(reg *obsv.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg, endpoints: map[string]*endpointMetrics{}}
	for _, ep := range endpointNames {
		em := &endpointMetrics{
			requests: reg.Counter("icrowd_http_requests_total",
				"HTTP requests received by endpoint, /v1 and project-scoped mounts combined.", "endpoint", ep),
			latency: reg.Histogram("icrowd_http_request_seconds",
				"HTTP request latency by endpoint.", nil, "endpoint", ep),
		}
		for i, cls := range statusClasses {
			em.classes[i] = reg.Counter("icrowd_http_responses_total",
				"HTTP responses by endpoint and status class.", "endpoint", ep, "class", cls)
		}
		m.endpoints[ep] = em
	}
	m.leaseExpired = reg.Counter("icrowd_lease_expired_total",
		"Assignments reclaimed by the lease sweeper after their deadline passed.")
	m.redelivered = reg.Counter("icrowd_assign_redelivered_total",
		"Idempotent /assign redeliveries of an already-held task.")
	m.duplicates = reg.Counter("icrowd_submit_duplicate_total",
		"Duplicate /submit deliveries acknowledged without double-counting.")
	m.logFailures = reg.Counter("icrowd_log_write_failures_total",
		"Event-log append failures surfaced as 503 log_write_failed.")
	m.encodeErrors = reg.Counter("icrowd_http_encode_errors_total",
		"JSON response bodies that failed to encode after headers were sent.")
	m.sweepHB = obsv.NewHeartbeat(reg.Gauge("icrowd_sweeper_last_sweep_timestamp_seconds",
		"Unix time of the lease sweeper's last completed pass."))
	m.queueDepth = reg.Gauge("icrowd_admission_queue_depth",
		"Requests currently waiting for an in-flight slot.")
	m.inflight = reg.Gauge("icrowd_admission_inflight",
		"Admitted requests currently running handler code.")
	m.admissionWait = reg.Histogram("icrowd_admission_wait_seconds",
		"Time admitted requests spent waiting for an in-flight slot.", nil)
	m.shedFull = reg.Counter("icrowd_admission_shed_total",
		"Requests shed with 429 by the admission layer, by reason.", "reason", "queue_full")
	m.shedDeadline = reg.Counter("icrowd_admission_shed_total",
		"Requests shed with 429 by the admission layer, by reason.", "reason", "deadline")
	m.throttled = reg.Counter("icrowd_worker_throttled_total",
		"Requests rejected with 429 by the per-worker rate limiter.")
	m.overloadTransitions = reg.Counter("icrowd_overload_transitions_total",
		"Times the admission queue crossed into sustained saturation (the probe-visible degraded state).")
	return m
}

// projectMetrics are the per-project instruments: event counters labelled
// by project and kind, and the pending-assignments gauge. A nil registry
// yields nil instruments (no-ops), same as serverMetrics.
type projectMetrics struct {
	assigns   *obsv.Counter
	submits   *obsv.Counter
	inactives *obsv.Counter
	pending   *obsv.Gauge
}

func newProjectMetrics(reg *obsv.Registry, id string) *projectMetrics {
	const help = "Events applied per project, by kind (accepted requests plus lease sweeps; replayed history excluded)."
	return &projectMetrics{
		assigns:   reg.Counter("icrowd_project_events_total", help, "project", id, "kind", "assign"),
		submits:   reg.Counter("icrowd_project_events_total", help, "project", id, "kind", "submit"),
		inactives: reg.Counter("icrowd_project_events_total", help, "project", id, "kind", "inactive"),
		pending: reg.Gauge("icrowd_project_pending",
			"Workers currently holding an assignment, per project.", "project", id),
	}
}

// events counts one applied event of the given kind.
func (pm *projectMetrics) events(kind store.EventKind) {
	if pm == nil {
		return
	}
	switch kind {
	case store.EventAssign:
		pm.assigns.Inc()
	case store.EventSubmit:
		pm.submits.Inc()
	case store.EventInactive:
		pm.inactives.Inc()
	}
}

// setPending updates the project's pending-assignments gauge.
func (pm *projectMetrics) setPending(n int) {
	if pm == nil {
		return
	}
	pm.pending.Set(float64(n))
}

// UseRegistry rebinds the server's metrics — and the probe counters behind
// /v1/healthz and /v1/readyz — to reg (nil disables metrics entirely).
// Call it before the server takes traffic; NewServer defaults to
// obsv.Default().
func (s *Server) UseRegistry(reg *obsv.Registry) {
	s.obs = newServerMetrics(reg)
	s.initHealth(reg)
	s.initSLO(reg)
	if s.adm != nil {
		s.adm.bind(s.obs)
	}
	for _, p := range s.snapshotProjects() {
		p.pm = newProjectMetrics(reg, p.id)
	}
}

// Registry returns the registry the server records into (nil when metrics
// are disabled).
func (s *Server) Registry() *obsv.Registry { return s.obs.reg }

// SetLogger replaces the server's structured logger (nil silences logging
// entirely). NewServer defaults to a text logger on stderr at info level;
// binaries install their -log-format/-log-level configuration here.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obsv.NopLogger()
	}
	s.logger = l
}

// Logger returns the server's structured logger.
func (s *Server) Logger() *slog.Logger { return s.logger }

// SetTracer replaces the server's request tracer (nil disables tracing and
// the X-Request-Id header). NewServer installs a DefaultTraceCapacity ring.
func (s *Server) SetTracer(tr *obsv.Tracer) { s.tracer = tr }

// EnablePprof mounts the net/http/pprof suite under /debug/pprof/ on the
// handler returned by the next Handler() call.
func (s *Server) EnablePprof() { s.pprof = true }

// statusWriter captures the response status for the metrics middleware
// without altering headers, body bytes, or write ordering.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps an endpoint handler with the observability middleware:
// request counting, a latency histogram observation, a status-class
// counter, one trace span per request, SLO accounting, and a debug-level
// structured access log line. The span honors caller-supplied trace
// context (obsv.Tracer.StartServerSpan): a traceparent header continues
// the caller's trace as a child span, an X-Request-Id is echoed back
// verbatim and coerced into the trace ID, and only a bare request mints a
// fresh trace. The echoed X-Request-Id plus the span carried in the
// request context stamp every log line handled under the request with the
// same request_id (the trace ID). The /v1 and the project-scoped mounts
// of an endpoint share its instruments, so the endpoint label aggregates
// both.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.obs.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		sp, rid := s.tracer.StartServerSpan(r, "http."+name)
		if sp != nil {
			w.Header().Set(obsv.RequestIDHeader, rid)
			r = r.WithContext(obsv.ContextWithSpan(r.Context(), sp))
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		em.latency.Observe(elapsed)
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		if cls := code/100 - 2; cls >= 0 && cls < len(em.classes) {
			em.classes[cls].Inc()
		}
		if sp != nil {
			sp.Annotate("status=" + strconv.Itoa(code))
			sp.End()
		}
		if s.slo != nil {
			now := s.clockNow()
			s.slo.Observe(name, elapsed, code, now)
			proj := r.PathValue("project")
			if proj == "" {
				proj = store.DefaultProject
			}
			s.slo.Observe("project:"+proj, elapsed, code, now)
		}
		s.logger.LogAttrs(r.Context(), slog.LevelDebug, "http request",
			slog.String("endpoint", name),
			slog.Int("status", code),
			slog.Duration("duration", elapsed))
	}
}

// handleMetrics serves GET /v1/metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	s.obs.reg.Handler().ServeHTTP(w, r)
}

// TraceResponse is returned by GET /v1/trace.
type TraceResponse struct {
	// Spans are the most recent completed request spans, newest first.
	Spans []obsv.SpanRecord `json:"spans"`
}

// maxTraceQueryN bounds GET /v1/trace's ?n=: the ring never retains
// anywhere near this many spans, so a larger ask is a caller bug (or an
// attempt to make the server allocate a giant slice) and gets a typed 400.
const maxTraceQueryN = 10000

// handleTrace serves GET /v1/trace: the most recent completed spans,
// newest first. ?n= bounds the count (default 100, max maxTraceQueryN,
// anything non-numeric, negative or absurd is a typed 400) and ?name=
// keeps only spans whose name starts with the given prefix (e.g.
// name=http.assign, name=lease.).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > maxTraceQueryN {
			s.writeError(r, w, http.StatusBadRequest, CodeBadRequest,
				"n must be an integer in [1, "+strconv.Itoa(maxTraceQueryN)+"]")
			return
		}
		n = v
	}
	spans := s.tracer.RecentFiltered(n, r.URL.Query().Get("name"))
	if spans == nil {
		spans = []obsv.SpanRecord{}
	}
	s.writeJSON(r, w, TraceResponse{Spans: spans})
}

// TraceQueryResponse is returned by GET /v1/trace/{traceid}: every span
// this process retains for one trace, oldest first. An unknown trace is a
// 200 with an empty list — the router's assembly fans this endpoint out to
// every shard and most shards will not have seen most traces.
type TraceQueryResponse struct {
	TraceID string            `json:"traceId"`
	Spans   []obsv.SpanRecord `json:"spans"`
}

// handleTraceByID serves GET /v1/trace/{traceid}.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	id, err := obsv.ParseTraceID(r.PathValue("traceid"))
	if err != nil {
		s.writeError(r, w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	spans := s.tracer.ByTrace(id)
	if spans == nil {
		spans = []obsv.SpanRecord{}
	}
	s.writeJSON(r, w, TraceQueryResponse{TraceID: id.String(), Spans: spans})
}

// writeJSON emits a 200 JSON response with headers committed before the
// body. Encode failures cannot change the already-sent status, so they are
// counted (icrowd_http_encode_errors_total) and logged — through the
// request's context, so the line carries the request_id of the active span
// — instead of being silently discarded.
func (s *Server) writeJSON(r *http.Request, w http.ResponseWriter, v interface{}) {
	s.writeJSONStatus(r, w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with a caller-chosen success status (the
// project-create handler answers 201).
func (s *Server) writeJSONStatus(r *http.Request, w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.obs.encodeErrors.Inc()
		s.logger.LogAttrs(r.Context(), slog.LevelError, "encoding response failed",
			slog.String("error", err.Error()))
	}
}

// writeError is the typed JSON error envelope with encode-failure
// accounting (the package-level writeError stays for tests and fakes).
func (s *Server) writeError(r *http.Request, w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(ErrorResponse{Code: code, Message: msg}); err != nil {
		s.obs.encodeErrors.Inc()
		s.logger.LogAttrs(r.Context(), slog.LevelError, "encoding error response failed",
			slog.String("error", err.Error()))
	}
}

// writeShed emits the typed 429 the overload layer produces, with the
// Retry-After hint rounded up to whole seconds (the HTTP header's unit)
// and never below one second.
func (s *Server) writeShed(r *http.Request, w http.ResponseWriter, code, msg string, retryAfter time.Duration) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeError(r, w, http.StatusTooManyRequests, code, msg)
}
