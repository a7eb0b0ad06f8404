package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/sim"
	"icrowd/internal/task"
)

func newTestServer(t *testing.T) (*httptest.Server, *task.Dataset) {
	t.Helper()
	ds := task.ProductMatching()
	st, err := baseline.NewRandomMV(ds, 3, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(st, ds).Handler())
	t.Cleanup(srv.Close)
	return srv, ds
}

func TestAssignSubmitRoundTrip(t *testing.T) {
	srv, ds := newTestServer(t)
	c := &Client{BaseURL: srv.URL}
	res, err := c.Assign(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assigned || res.TaskID < 0 || res.TaskID >= ds.Len() {
		t.Fatalf("assign = %+v", res)
	}
	if res.Text == "" {
		t.Fatal("assigned task should carry its question text")
	}
	if err := c.Submit(context.Background(), "w1", res.TaskID, task.Yes); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Strategy != "RandomMV" || st.Total != ds.Len() || st.Done {
		t.Fatalf("status = %+v", st)
	}
}

func TestAssignValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/assign")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing workerId: status %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/assign", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /assign: status %d", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("{"); got != http.StatusBadRequest {
		t.Fatalf("bad json: %d", got)
	}
	if got := post(`{"workerId":"w","taskId":0,"answer":"MAYBE"}`); got != http.StatusBadRequest {
		t.Fatalf("bad answer: %d", got)
	}
	if got := post(`{"workerId":"","taskId":0,"answer":"YES"}`); got != http.StatusBadRequest {
		t.Fatalf("empty worker: %d", got)
	}
	// Submitting without holding the task conflicts.
	if got := post(`{"workerId":"nobody","taskId":0,"answer":"YES"}`); got != http.StatusConflict {
		t.Fatalf("no pending: %d", got)
	}
	// GET /submit not allowed.
	resp, _ := http.Get(srv.URL + "/v1/submit")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /submit: %d", resp.StatusCode)
	}
}

func TestResultsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	c := &Client{BaseURL: srv.URL}
	res, err := c.Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 12 {
		t.Fatalf("results size %d", len(res))
	}
	for _, v := range res {
		if v != "YES" && v != "NO" && v != "NONE" {
			t.Fatalf("bad result value %q", v)
		}
	}
}

func TestEndToEndRandomMV(t *testing.T) {
	srv, ds := newTestServer(t)
	pool := sim.GeneratePool(ds, 6, sim.PoolOptions{Generalists: 1}, 3)
	if err := RunWorkers(context.Background(), srv.URL, ds, pool, 100, 7); err != nil {
		t.Fatal(err)
	}
	c := &Client{BaseURL: srv.URL}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("job not done after worker agents: %+v", st)
	}
	// Assign after done reports done.
	res, err := c.Assign(context.Background(), "straggler")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Assigned {
		t.Fatalf("post-done assign = %+v", res)
	}
}

func TestEndToEndICrowdConcurrent(t *testing.T) {
	// Full Appendix-A loop with the adaptive strategy and concurrent
	// worker goroutines.
	ds := task.ProductMatching()
	bc := core.DefaultBasisConfig()
	bc.Threshold = 0.5
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Q = 3
	ic, err := core.New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ic, ds).Handler())
	defer srv.Close()
	pool := []sim.Profile{
		{ID: "phone", DomainAcc: map[string]float64{"iPhone": 0.95, "iPod": 0.6, "iPad": 0.6}},
		{ID: "pod", DomainAcc: map[string]float64{"iPhone": 0.6, "iPod": 0.95, "iPad": 0.6}},
		{ID: "pad", DomainAcc: map[string]float64{"iPhone": 0.6, "iPod": 0.6, "iPad": 0.95}},
		{ID: "gen1", DomainAcc: map[string]float64{"iPhone": 0.8, "iPod": 0.8, "iPad": 0.8}},
		{ID: "gen2", DomainAcc: map[string]float64{"iPhone": 0.8, "iPod": 0.8, "iPad": 0.8}},
	}
	if err := RunWorkers(context.Background(), srv.URL, ds, pool, 200, 11); err != nil {
		t.Fatal(err)
	}
	c := &Client{BaseURL: srv.URL}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("iCrowd job not done: %+v", st)
	}
}

func TestWorkerAgentRejectsUnknownTask(t *testing.T) {
	// A malicious/broken server assigning out-of-range tasks must be caught.
	ds := task.ProductMatching()
	bogus := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(AssignResponse{Assigned: true, TaskID: 999})
	}))
	defer bogus.Close()
	agent := &WorkerAgent{
		Client:  &Client{BaseURL: bogus.URL},
		Profile: &sim.Profile{ID: "w"},
		Dataset: ds,
		Rng:     rand.New(rand.NewSource(1)),
	}
	if _, err := agent.Step(context.Background()); err == nil {
		t.Fatal("expected error for out-of-range task")
	}
}

func TestParseAnswer(t *testing.T) {
	if a, err := parseAnswer("YES"); err != nil || a != task.Yes {
		t.Fatal("YES failed")
	}
	if a, err := parseAnswer("NO"); err != nil || a != task.No {
		t.Fatal("NO failed")
	}
	if _, err := parseAnswer("NONE"); err == nil {
		t.Fatal("NONE should fail")
	}
}

func TestHTTPErrorIncludesBody(t *testing.T) {
	resp := &http.Response{
		StatusCode: 418,
		Body:       http.NoBody,
	}
	if err := httpError(resp); !strings.Contains(err.Error(), "418") {
		t.Fatalf("error missing status: %v", err)
	}
	resp2 := &http.Response{
		StatusCode: 500,
		Body:       newBody("boom"),
	}
	if err := httpError(resp2); !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error missing body: %v", err)
	}
}

func newBody(s string) *readCloser { return &readCloser{Reader: bytes.NewReader([]byte(s))} }

type readCloser struct{ *bytes.Reader }

func (r *readCloser) Close() error { return nil }
