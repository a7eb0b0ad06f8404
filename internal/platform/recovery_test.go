package platform

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/sim"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

func TestServerLogsAndRecovers(t *testing.T) {
	ds := task.ProductMatching()
	path := filepath.Join(t.TempDir(), "events.jsonl")

	// Phase 1: serve with a log, do some work, then "crash".
	st1, err := baseline.NewRandomMV(ds, 3, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv1obj := NewServer(st1, ds, WithBackend(l))
	srv1 := httptest.NewServer(srv1obj.Handler())
	c := &Client{BaseURL: srv1.URL}
	var did []int
	for i := 0; i < 5; i++ {
		res, err := c.Assign(context.Background(), "alice")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Assigned {
			break
		}
		if err := c.Submit(context.Background(), "alice", res.TaskID, task.Yes); err != nil {
			t.Fatal(err)
		}
		did = append(did, res.TaskID)
	}
	// A worker goes inactive via the endpoint.
	res, err := c.Assign(context.Background(), "bob")
	if err != nil || !res.Assigned {
		t.Fatalf("bob assign: %+v %v", res, err)
	}
	resp, err := http.Post(srv1.URL+"/inactive?workerId=bob", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("inactive status %d", resp.StatusCode)
	}
	srv1.Close()
	_ = l.Close()

	// Phase 2: fresh strategy, recover from the log, keep serving.
	st2, err := baseline.NewRandomMV(ds, 3, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	events, err := store.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Replay(events, st2); err != nil {
		t.Fatal(err)
	}
	for _, tid := range did {
		found := false
		for _, v := range st2.Job().Votes(tid) {
			if v.Worker == "alice" {
				found = true
			}
		}
		if !found {
			t.Fatalf("recovered state missing alice's vote on %d", tid)
		}
	}
	if _, busy := st2.Job().Pending("bob"); busy {
		t.Fatal("bob's released assignment survived recovery")
	}
	// The recovered server keeps working.
	srv2 := httptest.NewServer(NewServer(st2, ds).Handler())
	defer srv2.Close()
	c2 := &Client{BaseURL: srv2.URL}
	res, err = c2.Assign(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if res.Assigned {
		for _, tid := range did {
			if res.TaskID == tid {
				t.Fatal("recovered strategy re-assigned a completed task to alice")
			}
		}
	}
}

func TestInactiveEndpointValidation(t *testing.T) {
	ds := task.ProductMatching()
	st, _ := baseline.NewRandomMV(ds, 3, nil, 1)
	srv := httptest.NewServer(NewServer(st, ds).Handler())
	defer srv.Close()
	resp, _ := http.Get(srv.URL + "/inactive?workerId=x")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /inactive: %d", resp.StatusCode)
	}

	post := func(url, body string) (int, ErrorResponse) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		resp, err := http.Post(url, "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}

	// Missing worker ID everywhere: 400 with a typed code, not a no-op.
	if code, er := post(srv.URL+"/inactive", ""); code != http.StatusBadRequest || er.Code != CodeBadRequest {
		t.Fatalf("missing workerId: %d %+v", code, er)
	}
	// A worker the server has never seen: 400 unknown_worker.
	if code, er := post(srv.URL+"/inactive?workerId=nobody", ""); code != http.StatusBadRequest || er.Code != CodeUnknownWorker {
		t.Fatalf("unknown worker: %d %+v", code, er)
	}

	// Register a worker, then both spellings must work: query param...
	c := &Client{BaseURL: srv.URL}
	if _, err := c.Assign(context.Background(), "x"); err != nil {
		t.Fatal(err)
	}
	if code, er := post(srv.URL+"/inactive?workerId=x", ""); code != http.StatusNoContent {
		t.Fatalf("query-param inactive: %d %+v", code, er)
	}
	// ...and JSON body.
	if _, err := c.Assign(context.Background(), "y"); err != nil {
		t.Fatal(err)
	}
	if code, er := post(srv.URL+"/inactive", `{"workerId":"y"}`); code != http.StatusNoContent {
		t.Fatalf("json-body inactive: %d %+v", code, er)
	}
	// Malformed JSON body with no query param is a bad request.
	if code, er := post(srv.URL+"/inactive", `{"workerId":`); code != http.StatusBadRequest || er.Code != CodeBadRequest {
		t.Fatalf("malformed body: %d %+v", code, er)
	}
}

func TestEndToEndWithLogMatchesWithout(t *testing.T) {
	// Logging must not perturb the strategy's behaviour.
	ds := task.ProductMatching()
	pool := sim.GeneratePool(ds, 5, sim.PoolOptions{Generalists: 1}, 3)

	run := func(withLog bool) map[int]string {
		st, _ := baseline.NewRandomMV(ds, 3, nil, 7)
		var opts []ServerOption
		if withLog {
			l, _, err := store.Open(filepath.Join(t.TempDir(), "ev.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			opts = append(opts, WithBackend(l))
		}
		so := NewServer(st, ds, opts...)
		srv := httptest.NewServer(so.Handler())
		defer srv.Close()
		// Single worker agent stream keeps request order deterministic.
		if err := RunWorkers(context.Background(), srv.URL, ds, pool[:1], 100, 5); err != nil {
			t.Fatal(err)
		}
		c := &Client{BaseURL: srv.URL}
		res, err := c.Results(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("task %d differs with logging: %v vs %v", k, v, b[k])
		}
	}
}
