package platform

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// testSeedFor derives a deterministic per-project strategy seed, mirroring
// what cmd/icrowd-server does: resume only works if the factory rebuilds
// the exact same strategy for the same project id.
func testSeedFor(id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int64(h.Sum64() & math.MaxInt64)
}

func testFactory(ds *task.Dataset) StrategyFactory {
	return func(id string) (core.Strategy, error) {
		return baseline.NewRandomMV(ds, 3, nil, testSeedFor(id))
	}
}

// bootMultiProject assembles a server the way cmd/icrowd-server -data-dir
// does: ProjectStore for durability, default project bound at construction
// and replayed, named projects resumed through EnableProjects.
func bootMultiProject(t *testing.T, dir string) (*Server, int) {
	t.Helper()
	ds := task.ProductMatching()
	factory := testFactory(ds)
	ps, err := store.OpenProjects(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, info, err := ps.Project(store.DefaultProject)
	if err != nil {
		t.Fatal(err)
	}
	st, err := factory(store.DefaultProject)
	if err != nil {
		t.Fatal(err)
	}
	so := NewServer(st, ds, WithBackend(b))
	if info != nil && len(info.Events) > 0 {
		if err := store.Replay(info.Events, st); err != nil {
			t.Fatal(err)
		}
		so.Restore(info.Events)
	}
	resumed, err := so.EnableProjects(ps, factory)
	if err != nil {
		t.Fatal(err)
	}
	return so, resumed
}

type projectCapture struct {
	status  StatusResponse
	results map[int]string
	lastSeq int64
}

func captureProject(t *testing.T, api ClientAPI) projectCapture {
	t.Helper()
	st, err := api.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := api.Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return projectCapture{status: st, results: res}
}

// TestMultiProjectKillRestartResume is the acceptance test for resume: three
// projects served concurrently, the process killed, a fresh server pointed at
// the same data directory — every project must come back with identical
// strategy-visible state and without lost or duplicated submissions.
func TestMultiProjectKillRestartResume(t *testing.T) {
	const k = 3
	dir := t.TempDir()

	so1, resumed := bootMultiProject(t, dir)
	if resumed != 0 {
		t.Fatalf("fresh data dir resumed %d projects, want 0", resumed)
	}
	ts1 := httptest.NewServer(so1.Handler())
	c1 := &Client{BaseURL: ts1.URL}

	for _, id := range []string{"alpha", "beta"} {
		created, err := c1.Project(id).Create(context.Background())
		if err != nil || !created {
			t.Fatalf("create %s: created=%v err=%v", id, created, err)
		}
		again, err := c1.Project(id).Create(context.Background())
		if err != nil || again {
			t.Fatalf("re-create %s must be an idempotent no-op: created=%v err=%v", id, again, err)
		}
	}

	// Drive all three projects concurrently, two workers each, and count the
	// acknowledged submissions per project so the durable history can be
	// checked for loss and duplication afterwards.
	apis := map[string]ClientAPI{
		store.DefaultProject: c1,
		"alpha":              c1.Project("alpha"),
		"beta":               c1.Project("beta"),
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		submits = map[string]int{}
	)
	for id, api := range apis {
		for _, worker := range []string{"w1", "w2"} {
			id, api, worker := id, api, worker
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					res, err := api.Assign(context.Background(), worker)
					if err != nil {
						t.Errorf("%s/%s assign: %v", id, worker, err)
						return
					}
					if !res.Assigned {
						return
					}
					if err := api.Submit(context.Background(), worker, res.TaskID, task.Yes); err != nil {
						t.Errorf("%s/%s submit: %v", id, worker, err)
						return
					}
					mu.Lock()
					submits[id]++
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Capture what clients see before the kill.
	before := map[string]projectCapture{}
	for id, api := range apis {
		cap := captureProject(t, api)
		info, err := c1.Project(id).Info(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cap.lastSeq = info.LastSeq
		before[id] = cap
		if cap.lastSeq == 0 || cap.status.Completed == 0 {
			t.Fatalf("project %s did no work before the kill: %+v", id, cap.status)
		}
	}

	// Kill: drop the listener and close the server (which closes the store).
	ts1.Close()
	if err := so1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same directory.
	so2, resumed := bootMultiProject(t, dir)
	defer so2.Close()
	if resumed != 2 {
		t.Fatalf("restart resumed %d named projects, want 2", resumed)
	}
	ts2 := httptest.NewServer(so2.Handler())
	defer ts2.Close()
	c2 := &Client{BaseURL: ts2.URL}

	list, err := c2.Projects(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].ID != store.DefaultProject {
		t.Fatalf("project list after restart = %+v", list)
	}

	for id := range apis {
		var api ClientAPI = c2
		if id != store.DefaultProject {
			api = c2.Project(id)
		}
		after := captureProject(t, api)
		info, err := c2.Project(id).Info(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, got := before[id], after
		// HIT accounting is live-path bookkeeping; compare the
		// strategy-visible fields (as the chaos soak does).
		want.status.HITs, got.status.HITs = 0, 0
		want.status.CostUSD, got.status.CostUSD = 0, 0
		if !reflect.DeepEqual(want.status, got.status) {
			t.Fatalf("project %s status changed across restart:\nbefore %+v\nafter  %+v",
				id, want.status, got.status)
		}
		if !reflect.DeepEqual(want.results, got.results) {
			t.Fatalf("project %s results changed across restart", id)
		}
		if info.LastSeq != want.lastSeq {
			t.Fatalf("project %s lastSeq %d after restart, want %d", id, info.LastSeq, want.lastSeq)
		}

		// No lost or duplicated events: the durable history holds exactly the
		// acknowledged submissions, and no task exceeds its quota.
		events, err := store.ReadFile(filepath.Join(dir, id, "events.log"))
		if err != nil {
			t.Fatal(err)
		}
		perTask, total := map[int]int{}, 0
		for _, ev := range events {
			if ev.Kind == store.EventSubmit {
				perTask[ev.Task]++
				total++
			}
		}
		if total != submits[id] {
			t.Fatalf("project %s durable submits = %d, acknowledged = %d", id, total, submits[id])
		}
		for tid, n := range perTask {
			if n > k {
				t.Fatalf("project %s task %d has %d submissions, quota is %d", id, tid, n, k)
			}
		}
	}

	// The resumed server keeps serving: a fresh worker can still make
	// progress on a named project.
	res, err := c2.Project("alpha").Assign(context.Background(), "w3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Assigned {
		if err := c2.Project("alpha").Submit(context.Background(), "w3", res.TaskID, task.No); err != nil {
			t.Fatal(err)
		}
	} else if !res.Done {
		t.Fatalf("post-restart assign on alpha: %+v", res)
	}
}

// TestProjectRoutesAndTypedErrors pins the projects API surface: typed 404
// for unknown projects, idempotent PUT create, list contents, and isolation
// between a named project and the default one.
func TestProjectRoutesAndTypedErrors(t *testing.T) {
	ds := task.ProductMatching()
	st, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	so := NewServer(st, ds)
	if _, err := so.EnableProjects(nil, testFactory(ds)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(so.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	// Unknown project: typed 404 through the scoped client...
	_, err := c.Project("ghost").Status(context.Background())
	if !IsProjectNotFound(err) {
		t.Fatalf("status on unknown project: %v", err)
	}
	// ...and the raw envelope carries project_not_found, not not_found.
	resp, err := http.Get(ts.URL + "/v1/projects/ghost")
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || er.Code != CodeProjectNotFound {
		t.Fatalf("GET unknown project: %d %+v", resp.StatusCode, er)
	}

	// PUT create is idempotent: 201 then 200.
	doPut := func(id string) (int, ProjectCreateResponse, ErrorResponse) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/projects/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var cr ProjectCreateResponse
		var er ErrorResponse
		_ = json.Unmarshal(body, &cr)
		_ = json.Unmarshal(body, &er)
		return resp.StatusCode, cr, er
	}
	if code, cr, _ := doPut("p1"); code != http.StatusCreated || !cr.Created {
		t.Fatalf("first PUT: %d %+v", code, cr)
	}
	if code, cr, _ := doPut("p1"); code != http.StatusOK || cr.Created {
		t.Fatalf("second PUT: %d %+v", code, cr)
	}
	// Invalid ids are a typed 400, both raw and through the client.
	if code, _, er := doPut("no%20spaces"); code != http.StatusBadRequest || er.Code != CodeBadRequest {
		t.Fatalf("invalid id PUT: %d %+v", code, er)
	}
	if _, err := c.Project("***").Create(context.Background()); err == nil {
		t.Fatal("client Create accepted an invalid project id")
	}
	// Wrong method on the project root is a typed 405.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/projects/p1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE project root: %d", resp.StatusCode)
	}

	// The list holds default first plus the created project.
	list, err := c.Projects(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != store.DefaultProject || list[1].ID != "p1" {
		t.Fatalf("project list = %+v", list)
	}

	// Work on p1 is invisible to the default project.
	pc := c.Project("p1")
	res, err := pc.Assign(context.Background(), "w")
	if err != nil || !res.Assigned {
		t.Fatalf("assign on p1: %+v %v", res, err)
	}
	if err := pc.Submit(context.Background(), "w", res.TaskID, task.Yes); err != nil {
		t.Fatal(err)
	}
	defStatus, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if defStatus.Submitted != 0 {
		t.Fatalf("submit on p1 leaked into the default project: %+v", defStatus)
	}
	p1Info, err := pc.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p1Info.ID != "p1" || p1Info.Pending != 0 {
		t.Fatalf("p1 info = %+v", p1Info)
	}
}

// TestProjectScopedDefaultParity pins the aliasing contract: the default
// project answers byte-identically on the legacy route, the /v1 route, and
// its project-scoped route.
func TestProjectScopedDefaultParity(t *testing.T) {
	ds := task.ProductMatching()
	st, _ := baseline.NewRandomMV(ds, 3, nil, 11)
	so := NewServer(st, ds)
	ts := httptest.NewServer(so.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	if _, err := c.Assign(context.Background(), "w"); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, ep := range []string{"status", "results"} {
		legacy := get("/" + ep)
		v1 := get("/v1/" + ep)
		scoped := get("/v1/projects/" + store.DefaultProject + "/" + ep)
		if string(legacy) != string(v1) || string(v1) != string(scoped) {
			t.Fatalf("%s responses drift across mounts:\nlegacy %s\nv1     %s\nscoped %s",
				ep, legacy, v1, scoped)
		}
	}
}
