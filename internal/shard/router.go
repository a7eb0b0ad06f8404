package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/platform"
	"icrowd/internal/store"
)

// Router is the HTTP front for a fleet of icrowd-server shards. It speaks
// the same API as a single server, so clients (and the load harness) point
// at the router unchanged:
//
//   - Every project request is forwarded unchanged to the shard owning the
//     project ID on the consistent-hash ring: /v1/{assign,submit,inactive,
//     status,results} to the owner of the default project,
//     /v1/projects/{id}/… and /v1/projects/{id} (GET and PUT) to the owner
//     of {id}. The owner runs the project exactly as a single server would,
//     so each microtask gets its k answers and every answer reaches the
//     project's one consensus and estimator.
//   - GET /v1/projects lists every live shard's projects, each entry taken
//     from its owner only.
//   - /v1/healthz and /v1/readyz roll up shard probes, /v1/metrics serves
//     the union of every shard's Prometheus exposition with a shard label
//     injected, and /v1/trace/{traceid} and /v1/slo merge across the fleet.
//
// A dead shard takes only its projects out: requests routed to it get a
// typed 503 shard_unavailable with a Retry-After hint, survivors keep
// serving theirs, and the health probe re-admits the shard once it answers
// /v1/healthz again (after replaying its own event logs).

// Config configures a Router.
type Config struct {
	// Shards are the base URLs of the icrowd-server instances fronted by
	// the router (e.g. "http://127.0.0.1:9001"). Required, order
	// irrelevant — the ring depends only on the URL strings.
	Shards []string
	// Replicas is the virtual-node count per shard (<= 0 uses
	// DefaultReplicas).
	Replicas int
	// ProbeInterval is how often the background health loop probes each
	// shard (<= 0 uses 2s). It also sizes the Retry-After hint on
	// shard_unavailable responses: by the next probe the shard may be back.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each individual probe (<= 0 uses 2s).
	ProbeTimeout time.Duration
	// Client issues proxy and probe requests (nil uses a client with a 30s
	// timeout).
	Client *http.Client
	// Logger receives router events (nil uses slog.Default()).
	Logger *slog.Logger
	// Registry receives the router's own metrics (nil creates one); it is
	// appended to the merged /v1/metrics output under shard="router".
	Registry *obsv.Registry
	// Tracer records the router's own request spans (nil creates one with
	// the default capacity). The router continues any inbound trace
	// context, propagates it to the shards on every proxy and fan-out, and
	// contributes its spans to GET /v1/trace/{traceid} under origin
	// "router".
	Tracer *obsv.Tracer
}

// Router fronts the shard fleet. Create with New; serve its Handler.
type Router struct {
	cfg     Config
	ring    *Ring
	tracker *Tracker
	client  *http.Client
	logger  *slog.Logger
	reg     *obsv.Registry
	tracer  *obsv.Tracer
	mux     *http.ServeMux
	// retryAfter is the Retry-After hint attached to shard_unavailable.
	retryAfter time.Duration

	proxied     map[string]*obsv.Counter
	unavailable map[string]*obsv.Counter
	skipped     map[string]*obsv.Counter
	upGauge     map[string]*obsv.Gauge
}

// New builds a router over cfg.Shards.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: router needs at least one shard URL")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Registry == nil {
		cfg.Registry = obsv.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obsv.NewTracer(0)
	}
	rt := &Router{
		cfg:         cfg,
		ring:        NewRing(cfg.Replicas),
		client:      cfg.Client,
		logger:      cfg.Logger,
		reg:         cfg.Registry,
		tracer:      cfg.Tracer,
		retryAfter:  cfg.ProbeInterval,
		proxied:     map[string]*obsv.Counter{},
		unavailable: map[string]*obsv.Counter{},
		skipped:     map[string]*obsv.Counter{},
		upGauge:     map[string]*obsv.Gauge{},
	}
	seen := map[string]bool{}
	var shards []string
	for _, s := range cfg.Shards {
		s = strings.TrimRight(s, "/")
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		shards = append(shards, s)
		rt.ring.Add(s)
		rt.proxied[s] = rt.reg.Counter("icrowd_router_proxied_total",
			"Requests proxied to each shard.", "target", s)
		rt.unavailable[s] = rt.reg.Counter("icrowd_router_shard_unavailable_total",
			"Requests rejected because the owning shard was down.", "target", s)
		rt.skipped[s] = rt.reg.Counter("icrowd_router_fanout_skipped_total",
			"Fan-out reads that skipped a down shard.", "target", s)
		g := rt.reg.Gauge("icrowd_router_shard_up",
			"Whether the router currently routes to the shard (1 up, 0 down).", "target", s)
		g.Set(1)
		rt.upGauge[s] = g
	}
	if len(shards) == 0 {
		return nil, errors.New("shard: router needs at least one shard URL")
	}
	rt.tracker = NewTracker(shards, cfg.Client, cfg.ProbeTimeout)
	rt.mux = rt.routes()
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start runs the health-probe loop until the returned stop function is
// called. Each round probes every shard's /v1/healthz and flips the
// up-gauges, re-admitting restarted shards.
func (rt *Router) Start() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rt.cfg.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				rt.tracker.ProbeAll(ctx)
				rt.syncGauges()
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// syncGauges mirrors the tracker's state into the up-gauges.
func (rt *Router) syncGauges() {
	for _, st := range rt.tracker.Snapshot() {
		v := 0.0
		if st.Up {
			v = 1
		}
		if g := rt.upGauge[st.URL]; g != nil {
			g.Set(v)
		}
	}
}

// markDown records a passive failure (a proxy attempt hit a transport
// error) and flips the shard's gauge.
func (rt *Router) markDown(shard string, err error) {
	rt.tracker.MarkDown(shard, err)
	if g := rt.upGauge[shard]; g != nil {
		g.Set(0)
	}
	rt.logger.LogAttrs(context.Background(), slog.LevelWarn, "shard down",
		slog.String("shard", shard), slog.String("err", err.Error()))
}

// routes builds the mux. The surface mirrors a single icrowd-server so
// existing clients work unchanged against the router.
func (rt *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	for _, name := range []string{"assign", "submit", "inactive", "status", "results"} {
		h := rt.instrument(name, rt.ownerProxy)
		mux.HandleFunc("/v1/"+name, h)
		mux.HandleFunc("/v1/projects/{project}/"+name, h)
	}
	mux.HandleFunc("/v1/projects", requireMethod(http.MethodGet, rt.handleProjectList))
	mux.HandleFunc("/v1/projects/{project}", rt.instrument("projects", rt.ownerProxy))
	mux.HandleFunc("/v1/trace", requireMethod(http.MethodGet, rt.handleTrace))
	mux.HandleFunc("/v1/trace/{traceid}", requireMethod(http.MethodGet, rt.handleTraceByID))
	mux.HandleFunc("/v1/slo", requireMethod(http.MethodGet, rt.handleSLO))
	mux.HandleFunc("/v1/metrics", requireMethod(http.MethodGet, rt.handleMetrics))
	mux.HandleFunc("/v1/healthz", requireMethod(http.MethodGet, rt.handleHealthz))
	mux.HandleFunc("/v1/readyz", requireMethod(http.MethodGet, rt.handleReadyz))
	mux.HandleFunc("/v1/shards", requireMethod(http.MethodGet, rt.handleShards))
	mux.HandleFunc("/", rt.handleNotFound)
	return mux
}

// instrument opens a router span for the request — continuing any inbound
// trace context the same way a single server's middleware does — echoes the
// request ID, and threads the span through the context so proxy and fan-out
// calls propagate it to the shards. The router's span becomes the root of
// the cross-process trace; each shard's http.* span hangs off it.
func (rt *Router) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp, rid := rt.tracer.StartServerSpan(r, "router."+name)
		if sp != nil {
			w.Header().Set(obsv.RequestIDHeader, rid)
			r = r.WithContext(obsv.ContextWithSpan(r.Context(), sp))
			defer sp.End()
		}
		h(w, r)
	}
}

// requireMethod guards a handler with the endpoint's method, answering the
// same typed 405 the shards do.
func requireMethod(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, platform.CodeMethodNotAllowed, "method not allowed")
			return
		}
		h(w, r)
	}
}

// ---- project path: forward to the project's owner ----

// ownerProxy forwards the request unchanged to the ring owner of its
// project (the path's {project}, or the default project on the unscoped
// /v1 routes) and copies the response back: status, typed error bodies and
// Retry-After hints included, so the client sees exactly what the owner
// said. A transport failure marks the shard down and degrades to the typed
// 503 (nothing was applied: the request never reached a handler that logs
// events).
func (rt *Router) ownerProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("project")
	if id == "" {
		id = store.DefaultProject
	}
	shard := rt.ring.Get(id)
	if !rt.tracker.Up(shard) {
		rt.writeShardUnavailable(w, shard)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, platform.CodeBadRequest, "read body: "+err.Error())
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, shard+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, platform.CodeInternal, err.Error())
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	sp := obsv.SpanFromContext(r.Context())
	sp.Annotate("shard=" + shard)
	obsv.InjectTraceparent(req, sp)
	resp, err := rt.client.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away; the shard is not to blame.
			writeError(w, http.StatusBadRequest, platform.CodeBadRequest, "client cancelled request")
			return
		}
		rt.markDown(shard, err)
		rt.writeShardUnavailable(w, shard)
		return
	}
	defer resp.Body.Close()
	if c := rt.proxied[shard]; c != nil {
		c.Inc()
	}
	// The shard's X-Request-Id must not clobber the one the router already
	// echoed: with tracing on, both name the same trace, and the router's
	// copy is the one that matches a caller-supplied X-Request-Id verbatim.
	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-Id"} {
		if v := resp.Header.Get(h); v != "" && w.Header().Get(h) == "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // best effort once headers are out
}

// writeShardUnavailable answers the typed 503 for a down shard, hinting
// the client to retry after the next probe round may have re-admitted it.
func (rt *Router) writeShardUnavailable(w http.ResponseWriter, shard string) {
	if c := rt.unavailable[shard]; c != nil {
		c.Inc()
	}
	secs := int64((rt.retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, http.StatusServiceUnavailable, platform.CodeShardUnavailable,
		"shard "+shard+" is unavailable; its projects will resume after it rejoins")
}

// ---- fleet-wide reads: fan out and merge ----

// shardResult is one shard's answer to a fan-out read.
type shardResult struct {
	shard  string
	status int
	body   []byte
	err    error
}

var errShardDown = errors.New("shard down")

// fanout GETs path on every shard concurrently (down shards are skipped
// with err set), returning results in ring-node order (sorted by URL) so
// merges are deterministic.
func (rt *Router) fanout(ctx context.Context, path string) []shardResult {
	shards := rt.ring.Nodes()
	out := make([]shardResult, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		out[i] = shardResult{shard: s}
		if !rt.tracker.Up(s) {
			out[i].err = errShardDown
			if c := rt.skipped[s]; c != nil {
				c.Inc()
			}
			continue
		}
		wg.Add(1)
		go func(i int, s string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, s+path, nil)
			if err != nil {
				out[i].err = err
				return
			}
			obsv.InjectTraceparent(req, obsv.SpanFromContext(ctx))
			resp, err := rt.client.Do(req)
			if err != nil {
				if ctx.Err() == nil {
					rt.markDown(s, err)
				}
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			if err != nil {
				out[i].err = err
				return
			}
			out[i].status = resp.StatusCode
			out[i].body = body
		}(i, s)
	}
	wg.Wait()
	return out
}

// relayOrUnavailable handles a fan-out where no shard produced a 2xx: the
// first non-2xx response is relayed as-is (it is already a typed error —
// e.g. slo_disabled), and if nothing answered at all the router emits
// its own 503.
func relayOrUnavailable(w http.ResponseWriter, results []shardResult) {
	for _, res := range results {
		if res.err == nil && res.status != 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.status)
			w.Write(res.body) //nolint:errcheck
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, platform.CodeShardUnavailable,
		"no shard available")
}

// decode unmarshals a 2xx answer into v, reporting whether it could.
func (res shardResult) decode(v any) bool {
	return res.err == nil && res.status/100 == 2 && json.Unmarshal(res.body, v) == nil
}

// ---- health, metrics, shards ----

// HealthRollup is the router's /v1/healthz body: the router's own
// liveness plus each shard's tracked state.
type HealthRollup struct {
	// Status is "ok" when every shard is up, "degraded" otherwise. The
	// rollup itself always answers 200 — it reports the router alive.
	Status string       `json:"status"`
	Shards []ShardState `json:"shards"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	roll := HealthRollup{Status: "ok", Shards: rt.tracker.Snapshot()}
	for _, s := range roll.Shards {
		if !s.Up {
			roll.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, roll)
}

// ReadyState is one shard's readiness inside ReadyRollup.
type ReadyState struct {
	URL string `json:"url"`
	// Status is the shard's own readyz status ("unavailable" when the
	// shard could not be reached or answered non-2xx).
	Status string `json:"status"`
}

// ReadyRollup is the router's /v1/readyz body.
type ReadyRollup struct {
	// Status is "ok" when every shard is ready, "degraded" when some shard
	// reports degraded, "unavailable" (HTTP 503) when any shard is down or
	// unready — with a shard down, its projects reject every request,
	// so the fleet as a whole is not ready.
	Status string       `json:"status"`
	Shards []ReadyState `json:"shards"`
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	results := rt.fanout(r.Context(), "/v1/readyz")
	roll := ReadyRollup{Status: "ok"}
	status := http.StatusOK
	for _, res := range results {
		rs := ReadyState{URL: res.shard, Status: "unavailable"}
		if res.err == nil && res.status/100 == 2 {
			var probe obsv.ProbeResponse
			if err := json.Unmarshal(res.body, &probe); err == nil && probe.Status != "" {
				rs.Status = probe.Status
			} else {
				rs.Status = "ok"
			}
		}
		switch rs.Status {
		case "unavailable", "failed":
			roll.Status = "unavailable"
			status = http.StatusServiceUnavailable
		case "degraded":
			if roll.Status == "ok" {
				roll.Status = "degraded"
			}
		}
		roll.Shards = append(roll.Shards, rs)
	}
	writeJSON(w, status, roll)
}

// handleMetrics serves the union of every live shard's Prometheus
// exposition plus the router's own, each sample labelled with its origin.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	results := rt.fanout(r.Context(), "/v1/metrics")
	var parts []obsv.Exposition
	for _, res := range results {
		if res.err != nil || res.status/100 != 2 {
			continue
		}
		parts = append(parts, obsv.Exposition{Value: res.shard, Text: string(res.body)})
	}
	var own strings.Builder
	rt.reg.WritePrometheus(&own)
	parts = append(parts, obsv.Exposition{Value: "router", Text: own.String()})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, obsv.MergeExpositions("shard", parts)) //nolint:errcheck
}

// ShardsResponse is the /v1/shards body: the fleet as the router sees it.
type ShardsResponse struct {
	Shards []ShardState `json:"shards"`
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ShardsResponse{Shards: rt.tracker.Snapshot()})
}

// ---- tracing and SLO rollups ----

// maxTraceQueryN mirrors the shards' bound on GET /v1/trace's ?n=.
const maxTraceQueryN = 10000

// handleTrace serves the router's OWN recent spans (router.* request spans
// and probe activity), with the same ?n= bounds and ?name= prefix filter a
// single server exposes. Cross-process assembly lives one level down at
// /v1/trace/{traceid}.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > maxTraceQueryN {
			writeError(w, http.StatusBadRequest, platform.CodeBadRequest,
				"n must be an integer in [1, "+strconv.Itoa(maxTraceQueryN)+"]")
			return
		}
		n = v
	}
	spans := rt.tracer.RecentFiltered(n, r.URL.Query().Get("name"))
	if spans == nil {
		spans = []obsv.SpanRecord{}
	}
	writeJSON(w, http.StatusOK, platform.TraceResponse{Spans: spans})
}

// TraceAssembly is the router's GET /v1/trace/{traceid} body: every span
// the fleet recorded for the trace — the router's own plus each shard's,
// tagged with their origin — and the assembled parent/child tree. It is the
// trace analogue of the merged /v1/metrics exposition.
type TraceAssembly struct {
	// TraceID is the canonical 32-hex trace being assembled.
	TraceID string `json:"traceId"`
	// Spans is the flat union across processes, each tagged with Origin
	// ("router" or the shard's base URL).
	Spans []obsv.OriginSpan `json:"spans"`
	// Tree is the assembled forest: normally a single root (the router's
	// request span) with shard spans as descendants. Spans whose parent was
	// evicted from a ring surface as extra roots rather than disappearing.
	Tree []*obsv.TraceNode `json:"tree"`
	// Skipped lists shards that could not be queried (down or answering
	// garbage): their spans, if any, are missing from the assembly.
	Skipped []string `json:"skipped,omitempty"`
}

// handleTraceByID assembles the cross-process trace: fan out to every live
// shard's /v1/trace/{traceid}, merge with the router's own ring, and build
// the tree. Unknown traces return an empty assembly (200), matching the
// single-server contract; a malformed ID is a typed 400.
func (rt *Router) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, err := obsv.ParseTraceID(r.PathValue("traceid"))
	if err != nil {
		writeError(w, http.StatusBadRequest, platform.CodeBadRequest,
			"traceid must be 32 hex characters")
		return
	}
	results := rt.fanout(r.Context(), "/v1/trace/"+id.String())
	asm := TraceAssembly{TraceID: id.String(), Spans: []obsv.OriginSpan{}}
	for _, rec := range rt.tracer.ByTrace(id) {
		asm.Spans = append(asm.Spans, obsv.OriginSpan{SpanRecord: rec, Origin: "router"})
	}
	for _, res := range results {
		if res.err != nil || res.status/100 != 2 {
			asm.Skipped = append(asm.Skipped, res.shard)
			continue
		}
		var tq platform.TraceQueryResponse
		if err := json.Unmarshal(res.body, &tq); err != nil {
			asm.Skipped = append(asm.Skipped, res.shard)
			continue
		}
		for _, rec := range tq.Spans {
			asm.Spans = append(asm.Spans, obsv.OriginSpan{SpanRecord: rec, Origin: res.shard})
		}
	}
	asm.Tree = obsv.BuildTraceTree(asm.Spans)
	writeJSON(w, http.StatusOK, asm)
}

// handleSLO rolls up the fleet's error budgets: window counts sum across
// shards and burn rates are recomputed from the sums, so the answer is what
// a single server carrying the whole load would report. When no shard has
// an SLO engine the first typed 404 (slo_disabled) is relayed as-is.
func (rt *Router) handleSLO(w http.ResponseWriter, r *http.Request) {
	results := rt.fanout(r.Context(), "/v1/slo")
	var parts []obsv.SLOReport
	for _, res := range results {
		var rep obsv.SLOReport
		if res.decode(&rep) {
			parts = append(parts, rep)
		}
	}
	if len(parts) == 0 {
		relayOrUnavailable(w, results)
		return
	}
	writeJSON(w, http.StatusOK, obsv.MergeSLOReports(parts))
}

// ---- projects ----

// handleProjectList lists every live shard's projects, taking each entry
// only from the project's ring owner: a non-owner may host a same-named
// project (every shard opens the default one), but its entry is not the
// one the router serves.
func (rt *Router) handleProjectList(w http.ResponseWriter, r *http.Request) {
	results := rt.fanout(r.Context(), "/v1/projects")
	resp := platform.ProjectListResponse{Projects: []platform.ProjectInfo{}}
	answered := false
	for _, res := range results {
		var part platform.ProjectListResponse
		if !res.decode(&part) {
			continue
		}
		answered = true
		for _, p := range part.Projects {
			if rt.ring.Get(p.ID) == res.shard {
				resp.Projects = append(resp.Projects, p)
			}
		}
	}
	if !answered {
		relayOrUnavailable(w, results)
		return
	}
	// Default project first, the rest by id — the single-server order.
	sort.Slice(resp.Projects, func(i, j int) bool {
		a, b := resp.Projects[i].ID, resp.Projects[j].ID
		if (a == store.DefaultProject) != (b == store.DefaultProject) {
			return a == store.DefaultProject
		}
		return a < b
	})
	writeJSON(w, http.StatusOK, resp)
}

// handleNotFound mirrors the shards' typed 404.
func (rt *Router) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, platform.CodeNotFound, "no such endpoint: "+r.URL.Path)
}

// ---- small helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, platform.ErrorResponse{Code: code, Message: msg})
}
