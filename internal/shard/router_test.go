package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"icrowd/internal/platform"
)

// hit is one request a fake shard received.
type hit struct {
	method, uri, body string
}

// fakeShard is a scripted icrowd-server stand-in: it records every project
// request it receives and serves canned bodies.
type fakeShard struct {
	mu       sync.Mutex
	hits     []hit
	projects []platform.ProjectInfo // served by GET /v1/projects
	ready    string                 // readyz status body; "" serves ok
}

func (f *fakeShard) record(r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	f.mu.Lock()
	f.hits = append(f.hits, hit{r.Method, r.URL.RequestURI(), string(body)})
	f.mu.Unlock()
}

func (f *fakeShard) received() []hit {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]hit(nil), f.hits...)
}

func (f *fakeShard) handler() http.Handler {
	mux := http.NewServeMux()
	endpoint := func(w http.ResponseWriter, r *http.Request) {
		f.record(r)
		if strings.HasSuffix(r.URL.Path, "/assign") && r.URL.Query().Get("workerId") == "" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(platform.ErrorResponse{Code: platform.CodeBadRequest, Message: "workerId required"})
			return
		}
		json.NewEncoder(w).Encode(platform.AssignResponse{Assigned: true, TaskID: 1})
	}
	for _, ep := range []string{"assign", "submit", "inactive", "status", "results"} {
		mux.HandleFunc("/v1/"+ep, endpoint)
		mux.HandleFunc("/v1/projects/{project}/"+ep, endpoint)
	}
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := f.ready
		if st == "" {
			st = "ok"
		}
		if st == "failed" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]string{"status": st})
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "# HELP fake_total Fake.\n# TYPE fake_total counter\nfake_total 1\n")
	})
	mux.HandleFunc("/v1/projects", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(platform.ProjectListResponse{Projects: f.projects})
	})
	mux.HandleFunc("/v1/projects/{project}", func(w http.ResponseWriter, r *http.Request) {
		f.record(r)
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(platform.ProjectCreateResponse{ID: r.PathValue("project"), Created: true})
			return
		}
		json.NewEncoder(w).Encode(platform.ProjectInfo{ID: r.PathValue("project"), Strategy: "baseline-mv"})
	})
	return mux
}

// newFleet spins up n fake shards behind a router, returning the router's
// test server, the fakes (index-aligned with urls) and the shard URLs.
func newFleet(t *testing.T, n int) (*httptest.Server, []*fakeShard, []string, *Router) {
	t.Helper()
	fakes := make([]*fakeShard, n)
	urls := make([]string, n)
	for i := range fakes {
		fakes[i] = &fakeShard{}
		srv := httptest.NewServer(fakes[i].handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	rt, err := New(Config{Shards: urls, ProbeInterval: 50 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front, fakes, urls, rt
}

// projectIDs generates n synthetic project IDs.
func projectIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("p%04d", i)
	}
	return out
}

// ownedBy returns the IDs among ids whose ring owner is shard.
func ownedBy(rt *Router, ids []string, shard string) []string {
	var out []string
	for _, id := range ids {
		if rt.ring.Get(id) == shard {
			out = append(out, id)
		}
	}
	return out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestRouterRoutesByProject pins owner routing: every request of a project
// — the five endpoints and the project's own GET — reaches its ring owner
// and no other shard, with method, path, query and body unchanged; the
// unscoped /v1 routes belong to the default project's owner.
func TestRouterRoutesByProject(t *testing.T) {
	front, fakes, urls, rt := newFleet(t, 3)
	requests := func(prefix string) []hit {
		return []hit{
			{http.MethodGet, prefix + "/assign?workerId=w1", ""},
			{http.MethodPost, prefix + "/submit", `{"workerId":"w1","taskId":1,"answer":"YES"}`},
			{http.MethodPost, prefix + "/inactive", `{"workerId":"w1"}`},
			{http.MethodGet, prefix + "/status", ""},
			{http.MethodGet, prefix + "/results", ""},
		}
	}
	want := map[string][]hit{}
	for _, id := range projectIDs(30) {
		prefix := "/v1/projects/" + id
		reqs := append(requests(prefix), hit{http.MethodGet, prefix, ""})
		want[rt.ring.Get(id)] = append(want[rt.ring.Get(id)], reqs...)
	}
	want[rt.ring.Get("default")] = append(want[rt.ring.Get("default")], requests("/v1")...)
	// Send the requests in shard order so each fake's log is comparable.
	for _, u := range urls {
		for _, h := range want[u] {
			if status, body := do(t, h.method, front.URL+h.uri, h.body); status != http.StatusOK {
				t.Fatalf("%s %s: HTTP %d %s", h.method, h.uri, status, body)
			}
		}
	}
	for i, u := range urls {
		if len(want[u]) == 0 {
			t.Fatalf("shard %d owns no project; the ring is degenerate", i)
		}
		got := fakes[i].received()
		if len(got) != len(want[u]) {
			t.Fatalf("shard %d received %d requests, want %d: %+v", i, len(got), len(want[u]), got)
		}
		for j := range got {
			if got[j] != want[u][j] {
				t.Fatalf("shard %d request %d = %+v, want %+v", i, j, got[j], want[u][j])
			}
		}
	}
}

// TestRouterMissingWorkerIsTyped400 pins that validation is the owner's:
// an assign without a worker reaches the default project's owner, whose
// typed 400 the router relays.
func TestRouterMissingWorkerIsTyped400(t *testing.T) {
	front, fakes, urls, rt := newFleet(t, 2)
	status, body := get(t, front.URL+"/v1/assign")
	if status != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", status)
	}
	var er platform.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != platform.CodeBadRequest {
		t.Fatalf("body %s, want code bad_request", body)
	}
	for i, u := range urls {
		n := len(fakes[i].received())
		if owner := rt.ring.Get("default") == u; (n == 1) != owner {
			t.Fatalf("shard %d (owner %v) received %d requests", i, owner, n)
		}
	}
}

func TestRouterDownShardGetsTyped503(t *testing.T) {
	front, _, urls, rt := newFleet(t, 3)
	// Kill shard 0 at the transport level by marking it down (the passive
	// path is exercised in the chaos test against real closed listeners).
	ids := projectIDs(60)
	victims, survivors := ownedBy(rt, ids, urls[0]), ownedBy(rt, ids, urls[1])
	if len(victims) == 0 || len(survivors) == 0 {
		t.Fatal("a shard owns none of the projects; grow the ID set")
	}
	rt.markDown(urls[0], fmt.Errorf("test: connection refused"))

	for _, path := range []string{
		"/v1/projects/" + victims[0] + "/assign?workerId=w1",
		"/v1/projects/" + victims[0],
	} {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var er platform.ErrorResponse
		if resp.StatusCode != http.StatusServiceUnavailable ||
			json.Unmarshal(body, &er) != nil || er.Code != platform.CodeShardUnavailable {
			t.Fatalf("GET %s: HTTP %d %s, want typed 503 shard_unavailable", path, resp.StatusCode, body)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
		}
	}
	// Projects owned by surviving shards still get through.
	if status, _ := get(t, front.URL+"/v1/projects/"+survivors[0]+"/assign?workerId=w1"); status != http.StatusOK {
		t.Fatalf("survivor project got HTTP %d, want 200", status)
	}
}

func TestRouterProbeReadmitsShard(t *testing.T) {
	front, _, urls, rt := newFleet(t, 2)
	rt.markDown(urls[1], fmt.Errorf("test: down"))
	if rt.tracker.Up(urls[1]) {
		t.Fatal("markDown did not take")
	}
	stop := rt.Start()
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for !rt.tracker.Up(urls[1]) {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never re-admitted the healthy shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the fleet rollup reflects it.
	status, body := get(t, front.URL+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz HTTP %d", status)
	}
	var roll HealthRollup
	if err := json.Unmarshal(body, &roll); err != nil || roll.Status != "ok" {
		t.Fatalf("healthz rollup %s, want status ok", body)
	}
}

// TestRouterProjectCreateOwnerOnly pins that PUT /v1/projects/{id} creates
// the project on its owner alone: the owner's 201 is relayed, no other
// shard sees the request, a down non-owner does not block the create, and
// a down owner answers the typed 503.
func TestRouterProjectCreateOwnerOnly(t *testing.T) {
	front, fakes, urls, rt := newFleet(t, 3)
	ids := projectIDs(60)
	id := ownedBy(rt, ids, urls[1])[0]
	status, body := do(t, http.MethodPut, front.URL+"/v1/projects/"+id, "")
	var cr platform.ProjectCreateResponse
	if status != http.StatusCreated || json.Unmarshal(body, &cr) != nil || cr.ID != id || !cr.Created {
		t.Fatalf("PUT: HTTP %d %s, want 201 created", status, body)
	}
	for i, f := range fakes {
		if got := len(f.received()); (got == 1) != (i == 1) {
			t.Fatalf("shard %d received %d requests for a project shard 1 owns", i, got)
		}
	}

	rt.markDown(urls[0], fmt.Errorf("test: down"))
	if status, body := do(t, http.MethodPut, front.URL+"/v1/projects/"+ownedBy(rt, ids, urls[2])[0], ""); status != http.StatusCreated {
		t.Fatalf("PUT with a non-owner down: HTTP %d %s, want 201", status, body)
	}
	status, body = do(t, http.MethodPut, front.URL+"/v1/projects/"+ownedBy(rt, ids, urls[0])[0], "")
	var er platform.ErrorResponse
	if status != http.StatusServiceUnavailable || json.Unmarshal(body, &er) != nil || er.Code != platform.CodeShardUnavailable {
		t.Fatalf("PUT with the owner down: HTTP %d %s, want typed 503", status, body)
	}
}

// TestRouterProjectListFromOwners pins GET /v1/projects: every shard lists
// every project, and the router keeps each project's entry from its owner
// only, in the single-server order (default first, then by ID). A down
// owner's projects drop out of the list.
func TestRouterProjectListFromOwners(t *testing.T) {
	front, fakes, urls, rt := newFleet(t, 3)
	ids := append([]string{"default"}, projectIDs(12)...)
	for i, f := range fakes {
		for _, id := range ids {
			// LastSeq names the shard that produced the entry.
			f.projects = append(f.projects, platform.ProjectInfo{ID: id, Strategy: "baseline-mv", LastSeq: int64(i + 1)})
		}
	}
	list := func() []platform.ProjectInfo {
		t.Helper()
		status, body := get(t, front.URL+"/v1/projects")
		var resp platform.ProjectListResponse
		if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Fatalf("list: HTTP %d %s", status, body)
		}
		return resp.Projects
	}
	check := func(got []platform.ProjectInfo, up func(string) bool) {
		t.Helper()
		var want []string
		for _, id := range ids {
			if up(rt.ring.Get(id)) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("listed %d projects, want %d: %+v", len(got), len(want), got)
		}
		for i, p := range got {
			if p.ID != want[i] {
				t.Fatalf("entry %d is %s, want %s (default first, then by ID)", i, p.ID, want[i])
			}
			if owner := urls[p.LastSeq-1]; owner != rt.ring.Get(p.ID) {
				t.Fatalf("project %s listed from %s, not its owner %s", p.ID, owner, rt.ring.Get(p.ID))
			}
		}
	}
	check(list(), func(string) bool { return true })
	rt.markDown(urls[2], fmt.Errorf("test: down"))
	check(list(), func(s string) bool { return s != urls[2] })
}

func TestRouterReadyzRollsUpWorstState(t *testing.T) {
	front, fakes, urls, rt := newFleet(t, 3)
	if status, _ := get(t, front.URL+"/v1/readyz"); status != http.StatusOK {
		t.Fatalf("all-ok readyz HTTP %d, want 200", status)
	}
	fakes[1].ready = "degraded"
	status, body := get(t, front.URL+"/v1/readyz")
	var roll ReadyRollup
	if err := json.Unmarshal(body, &roll); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || roll.Status != "degraded" {
		t.Fatalf("degraded shard: HTTP %d status %s, want 200/degraded", status, roll.Status)
	}
	rt.markDown(urls[2], fmt.Errorf("test: down"))
	status, body = get(t, front.URL+"/v1/readyz")
	if err := json.Unmarshal(body, &roll); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || roll.Status != "unavailable" {
		t.Fatalf("down shard: HTTP %d status %s, want 503/unavailable", status, roll.Status)
	}
}

func TestRouterMetricsMergesShardsAndSelf(t *testing.T) {
	front, _, urls, _ := newFleet(t, 2)
	// Generate some router-side traffic so its own counters exist.
	get(t, front.URL+"/v1/assign?workerId=w0001")
	status, body := get(t, front.URL+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics HTTP %d", status)
	}
	out := string(body)
	for _, u := range urls {
		if !strings.Contains(out, `fake_total{shard="`+u+`"} 1`) {
			t.Fatalf("missing shard %s sample in merged metrics:\n%s", u, out)
		}
	}
	if strings.Count(out, "# TYPE fake_total counter") != 1 {
		t.Fatalf("family header not merged:\n%s", out)
	}
	if !strings.Contains(out, `shard="router"`) {
		t.Fatalf("router's own metrics missing:\n%s", out)
	}
	// The router's own per-backend series use the target label so the
	// injected shard label never duplicates: one shard= pair per sample.
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(line, `shard="`) > 1 {
			t.Fatalf("duplicate shard label in merged sample: %s", line)
		}
	}
	if !strings.Contains(out, `target="`+urls[0]+`"`) {
		t.Fatalf("router per-backend series missing target label:\n%s", out)
	}
}

// TestRouterUnknownPathIsTyped404 pins the typed 404 for unknown paths,
// the seed's unversioned endpoint paths included: the router does not
// serve them and forwards nothing.
func TestRouterUnknownPathIsTyped404(t *testing.T) {
	front, fakes, _, _ := newFleet(t, 1)
	for _, path := range []string{"/v1/nope", "/assign?workerId=w1", "/submit", "/inactive", "/status", "/results"} {
		status, body := get(t, front.URL+path)
		var er platform.ErrorResponse
		if status != http.StatusNotFound || json.Unmarshal(body, &er) != nil || er.Code != platform.CodeNotFound {
			t.Fatalf("GET %s: HTTP %d %s, want typed 404", path, status, body)
		}
	}
	if got := fakes[0].received(); len(got) != 0 {
		t.Fatalf("unknown paths reached the shard: %+v", got)
	}
}
