package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/platform"
)

// submitOnce runs one assign+submit for worker in project through the
// front URL and returns the submit response's X-Request-Id (the trace ID).
func submitOnce(t *testing.T, front, project, worker string) string {
	t.Helper()
	prefix := front + "/v1/projects/" + project
	status, body := get(t, prefix+"/assign?workerId="+worker)
	var ar platform.AssignResponse
	if status != http.StatusOK || json.Unmarshal(body, &ar) != nil || !ar.Assigned {
		t.Fatalf("assign %s: %d %s", worker, status, body)
	}
	payload := fmt.Sprintf(`{"workerId":%q,"taskId":%d,"answer":"YES"}`, worker, ar.TaskID)
	resp, err := http.Post(prefix+"/submit", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s: %d", worker, resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-Id")
	if _, err := obsv.ParseTraceID(rid); err != nil {
		t.Fatalf("submit X-Request-Id %q is not a trace ID: %v", rid, err)
	}
	return rid
}

// fetchAssembly pulls and decodes the router's cross-process assembly.
func fetchAssembly(t *testing.T, front, rid string) TraceAssembly {
	t.Helper()
	status, body := get(t, front+"/v1/trace/"+rid)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: %d %s", rid, status, body)
	}
	var asm TraceAssembly
	if err := json.Unmarshal(body, &asm); err != nil {
		t.Fatalf("assembly body %s: %v", body, err)
	}
	return asm
}

// checkSubmitAssembly asserts the canonical cross-process submit trace:
// one router.submit root (origin "router") with the owning shard's
// http.submit span as a child, every span sharing the trace ID.
func checkSubmitAssembly(t *testing.T, asm TraceAssembly, rid, owner string) {
	t.Helper()
	for _, sp := range asm.Spans {
		if sp.TraceID != rid {
			t.Fatalf("span outside trace %s: %+v", rid, sp)
		}
	}
	if len(asm.Tree) != 1 {
		t.Fatalf("assembly has %d roots, want 1: %+v", len(asm.Tree), asm.Tree)
	}
	root := asm.Tree[0]
	if root.Span.Name != "router.submit" || root.Span.Origin != "router" {
		t.Fatalf("root = %s from %s, want router.submit from router", root.Span.Name, root.Span.Origin)
	}
	var shardChild *obsv.TraceNode
	for _, c := range root.Children {
		if c.Span.Name == "http.submit" {
			shardChild = c
		}
	}
	if shardChild == nil {
		t.Fatalf("router.submit has no http.submit child: %+v", root.Children)
	}
	if shardChild.Span.Origin != owner {
		t.Fatalf("http.submit origin %s, want owning shard %s", shardChild.Span.Origin, owner)
	}
	names := map[string]bool{}
	for _, g := range shardChild.Children {
		names[g.Span.Name] = true
	}
	for _, want := range []string{"log.append", "scheme.recompute"} {
		if !names[want] {
			t.Fatalf("http.submit missing %s child: %+v", want, shardChild.Children)
		}
	}
}

// TestTraceAssemblyAcrossFleet is the end-to-end tracing pin: a submit
// through the router over two real shards yields one shared 128-bit trace
// whose assembled tree has the router span as root and the owning shard's
// spans beneath it — and the assembly survives killing and restarting a
// shard.
func TestTraceAssemblyAcrossFleet(t *testing.T) {
	dir := t.TempDir()
	shards := make([]*shardProc, 2)
	for i := range shards {
		shards[i] = startProductShard(t, filepath.Join(dir, fmt.Sprintf("shard%d", i)))
	}
	defer func() {
		for _, p := range shards {
			p.kill(t)
		}
	}()
	urls := []string{shards[0].url, shards[1].url}
	rt, err := New(Config{Shards: urls, ProbeInterval: 50 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := rt.Start()
	defer stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Create one project per shard so the test can aim requests at each.
	projectFor := map[string]string{}
	for _, u := range urls {
		owned := ownedBy(rt, projectIDs(40), u)
		if len(owned) == 0 {
			t.Fatalf("no project hashes to %s; grow the ID set", u)
		}
		projectFor[u] = owned[0]
		if status, body := do(t, http.MethodPut, front.URL+"/v1/projects/"+owned[0], ""); status != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d %s", owned[0], status, body)
		}
	}

	rid := submitOnce(t, front.URL, projectFor[urls[0]], "w1")
	checkSubmitAssembly(t, fetchAssembly(t, front.URL, rid), rid, urls[0])

	// Kill shard 1: the assembly of shard-0 traces still answers, noting
	// the dark shard as skipped rather than failing the whole query.
	victim := shards[1]
	victim.kill(t)
	deadline := time.Now().Add(5 * time.Second)
	for rt.tracker.Up(victim.url) {
		if time.Now().After(deadline) {
			t.Fatal("router never marked the killed shard down")
		}
		get(t, front.URL+"/v1/projects/"+projectFor[victim.url]+"/status") // passive failure detection
		time.Sleep(10 * time.Millisecond)
	}
	asm := fetchAssembly(t, front.URL, rid)
	checkSubmitAssembly(t, asm, rid, urls[0])
	skipped := false
	for _, s := range asm.Skipped {
		if s == victim.url {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("assembly with dead shard: skipped %v, want %s listed", asm.Skipped, victim.url)
	}

	// Restart the shard at the same address and trace a request through it:
	// the rejoined process contributes fresh spans to new traces.
	shards[1] = victim.restart(t)
	deadline = time.Now().Add(5 * time.Second)
	for !rt.tracker.Up(victim.url) {
		if time.Now().After(deadline) {
			t.Fatal("router never re-admitted the restarted shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rid1 := submitOnce(t, front.URL, projectFor[urls[1]], "w1")
	checkSubmitAssembly(t, fetchAssembly(t, front.URL, rid1), rid1, urls[1])
	if rid1 == rid {
		t.Fatal("distinct requests shared a trace ID")
	}
}

// TestProxyPropagatesTraceContext pins the wire half against a scripted
// shard: the proxied request carries a traceparent naming the router's
// span, inbound trace context flows through, and the shard's X-Request-Id
// never clobbers the router's echo.
func TestProxyPropagatesTraceContext(t *testing.T) {
	var mu sync.Mutex
	var gotTraceparent string
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/assign") {
			mu.Lock()
			gotTraceparent = r.Header.Get(obsv.TraceparentHeader)
			mu.Unlock()
			w.Header().Set(obsv.RequestIDHeader, "shard-side-id")
			json.NewEncoder(w).Encode(platform.AssignResponse{Assigned: true, TaskID: 1})
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	}))
	defer fake.Close()
	rt, err := New(Config{Shards: []string{fake.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/assign?workerId=w1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if rid == "shard-side-id" {
		t.Fatal("shard's X-Request-Id clobbered the router's echo")
	}
	mu.Lock()
	tp := gotTraceparent
	mu.Unlock()
	sc, ok := obsv.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("proxied request carried unparsable traceparent %q", tp)
	}
	if sc.Trace.String() != rid {
		t.Fatalf("proxied trace %s != echoed X-Request-Id %s", sc.Trace, rid)
	}

	// A caller-supplied traceparent flows through the router to the shard.
	inbound := obsv.NewTraceID()
	req, _ := http.NewRequest("GET", front.URL+"/v1/assign?workerId=w1", nil)
	req.Header.Set(obsv.TraceparentHeader, "00-"+inbound.String()+"-00000000000000cd-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != inbound.String() {
		t.Fatalf("inbound trace not echoed: %q != %s", got, inbound)
	}
	mu.Lock()
	sc, ok = obsv.ParseTraceparent(gotTraceparent)
	mu.Unlock()
	if !ok || sc.Trace != inbound {
		t.Fatalf("inbound trace not propagated to the shard: %q", gotTraceparent)
	}
}

// TestRouterTraceQueryValidation pins the router's own /v1/trace surface:
// the same ?n= bounds and typed 400s as a single server, the ?name= prefix
// filter, and the typed 400 on a malformed assembly ID.
func TestRouterTraceQueryValidation(t *testing.T) {
	front, _, urls, _ := newFleet(t, 2)
	get(t, front.URL+"/v1/assign?workerId=w1")
	get(t, front.URL+"/v1/status")

	for _, q := range []string{"n=0", "n=-5", "n=abc", "n=" + strconv.Itoa(maxTraceQueryN+1)} {
		status, body := get(t, front.URL+"/v1/trace?"+q)
		var er platform.ErrorResponse
		if status != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Code != platform.CodeBadRequest {
			t.Fatalf("GET /v1/trace?%s: %d %s, want typed 400", q, status, body)
		}
	}
	status, body := get(t, front.URL+"/v1/trace?name=router.assign")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace?name=: %d", status)
	}
	var tr platform.TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("router recorded no router.assign spans")
	}
	for _, sp := range tr.Spans {
		if !strings.HasPrefix(sp.Name, "router.assign") {
			t.Fatalf("name filter leaked %q", sp.Name)
		}
	}

	status, body = get(t, front.URL+"/v1/trace/zzz")
	var er platform.ErrorResponse
	if status != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Code != platform.CodeBadRequest {
		t.Fatalf("malformed assembly id: %d %s, want typed 400", status, body)
	}

	// Unknown trace against shards with no trace endpoint: an empty 200
	// assembly that names both unqueryable shards as skipped.
	unknown := obsv.NewTraceID().String()
	status, body = get(t, front.URL+"/v1/trace/"+unknown)
	if status != http.StatusOK {
		t.Fatalf("unknown assembly: %d %s", status, body)
	}
	var asm TraceAssembly
	if err := json.Unmarshal(body, &asm); err != nil {
		t.Fatal(err)
	}
	if len(asm.Spans) != 0 || len(asm.Tree) != 0 || len(asm.Skipped) != len(urls) {
		t.Fatalf("unknown assembly = %s, want empty with %d skipped", body, len(urls))
	}
}

// sloShard serves a canned /v1/slo body with the given status.
func sloShard(t *testing.T, status int, body any) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/slo" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(body)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestSLORollupMergesShards pins /v1/slo on the router: window counts sum
// across shards with burn rates recomputed from the sums.
func TestSLORollupMergesShards(t *testing.T) {
	part := func(requests, misses int64) obsv.SLOReport {
		return obsv.SLOReport{Objectives: []obsv.SLOObjectiveStatus{{
			Key: "assign", LatencyTargetMS: 5, LatencyGoal: 0.99, ErrorGoal: 0.999,
			Windows: []obsv.SLOWindowStatus{{
				Window: "5m", Requests: requests, LatencyMisses: misses,
				LatencyBurnRate: float64(misses) / float64(requests) / 0.01,
			}},
		}}}
	}
	urls := []string{
		sloShard(t, http.StatusOK, part(90, 0)),
		sloShard(t, http.StatusOK, part(10, 1)),
	}
	rt, err := New(Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	status, body := get(t, front.URL+"/v1/slo")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/slo: %d %s", status, body)
	}
	var rep obsv.SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 1 || rep.Objectives[0].Key != "assign" {
		t.Fatalf("merged report %s", body)
	}
	w := rep.Objectives[0].Windows[0]
	if w.Requests != 100 || w.LatencyMisses != 1 {
		t.Fatalf("merged 5m window %+v, want 100 requests / 1 miss", w)
	}
	// Burn recomputed from fleet totals: (1/100)/(1-0.99) = 1.0.
	if w.LatencyBurnRate < 0.99 || w.LatencyBurnRate > 1.01 {
		t.Fatalf("merged burn %v, want ~1.0", w.LatencyBurnRate)
	}
}

// TestSLORollupRelaysDisabled pins the all-disabled fleet: the router
// relays the shards' typed 404 rather than inventing an empty report.
func TestSLORollupRelaysDisabled(t *testing.T) {
	disabled := platform.ErrorResponse{Code: platform.CodeSLODisabled, Message: "no SLO configured"}
	rt, err := New(Config{Shards: []string{
		sloShard(t, http.StatusNotFound, disabled),
		sloShard(t, http.StatusNotFound, disabled),
	}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	status, body := get(t, front.URL+"/v1/slo")
	var er platform.ErrorResponse
	if status != http.StatusNotFound || json.Unmarshal(body, &er) != nil || er.Code != platform.CodeSLODisabled {
		t.Fatalf("GET /v1/slo on disabled fleet: %d %s, want relayed 404 slo_disabled", status, body)
	}
}
