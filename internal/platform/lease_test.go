package platform

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// fakeClock is a manually advanced clock for deterministic lease tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newLeaseServer(t *testing.T) (*Server, *httptest.Server, *fakeClock, string) {
	t.Helper()
	ds := task.ProductMatching()
	st, err := baseline.NewRandomMV(ds, 3, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := store.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	clk := &fakeClock{t: time.Unix(1000, 0)}
	so := NewServer(st, ds, WithBackend(l))
	so.SetLease(time.Minute)
	so.SetClock(clk.now)
	srv := httptest.NewServer(so.Handler())
	t.Cleanup(srv.Close)
	return so, srv, clk, logPath
}

func TestLeaseSweepReclaimsAbandonedAssignment(t *testing.T) {
	so, srv, clk, logPath := newLeaseServer(t)
	c := &Client{BaseURL: srv.URL}
	res, err := c.Assign(context.Background(), "ghost")
	if err != nil || !res.Assigned {
		t.Fatalf("assign: %+v %v", res, err)
	}

	// Within the lease nothing is reclaimed.
	if got := so.SweepExpired(); len(got) != 0 {
		t.Fatalf("premature sweep reclaimed %v", got)
	}
	clk.advance(2 * time.Minute)
	if got := so.SweepExpired(); len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("sweep = %v", got)
	}
	// Idempotent: nothing left to reclaim.
	if got := so.SweepExpired(); len(got) != 0 {
		t.Fatalf("second sweep reclaimed %v", got)
	}

	// A submit racing the sweep gets the typed lease-lost rejection.
	err = c.Submit(context.Background(), "ghost", res.TaskID, task.Yes)
	if !IsNoPending(err) {
		t.Fatalf("post-sweep submit: %v", err)
	}

	// The departure is durable: the log ends with an inactive event.
	events, err := store.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Kind != store.EventInactive || last.Worker != "ghost" {
		t.Fatalf("last event = %+v", last)
	}

	// The reclaimed worker can pick up work again (fresh assignment).
	res2, err := c.Assign(context.Background(), "ghost")
	if err != nil || !res2.Assigned || res2.Redelivered {
		t.Fatalf("post-sweep assign: %+v %v", res2, err)
	}
}

func TestAssignRedeliveryIsIdempotent(t *testing.T) {
	_, srv, clk, logPath := newLeaseServer(t)
	c := &Client{BaseURL: srv.URL}
	res1, err := c.Assign(context.Background(), "alice")
	if err != nil || !res1.Assigned {
		t.Fatalf("assign: %+v %v", res1, err)
	}
	// A retried /assign (lost response) redelivers the same task without
	// a second assignment or log event, and renews the lease.
	clk.advance(45 * time.Second)
	res2, err := c.Assign(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Assigned || !res2.Redelivered || res2.TaskID != res1.TaskID {
		t.Fatalf("redelivery = %+v (first %+v)", res2, res1)
	}
	events, err := store.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("redelivery must not append events, log has %d", len(events))
	}
	// The renewal means another 45s does not expire the original lease.
	clk.advance(45 * time.Second)
	if err := c.Submit(context.Background(), "alice", res1.TaskID, task.Yes); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitDuplicateAcknowledged(t *testing.T) {
	_, srv, _, logPath := newLeaseServer(t)
	c := &Client{BaseURL: srv.URL}
	res, err := c.Assign(context.Background(), "bob")
	if err != nil || !res.Assigned {
		t.Fatalf("assign: %+v %v", res, err)
	}
	sr, err := c.SubmitR(context.Background(), "bob", res.TaskID, task.No)
	if err != nil || sr.Duplicate {
		t.Fatalf("first submit: %+v %v", sr, err)
	}
	sr2, err := c.SubmitR(context.Background(), "bob", res.TaskID, task.No)
	if err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	if !sr2.Accepted || !sr2.Duplicate {
		t.Fatalf("duplicate submit response = %+v", sr2)
	}
	// Nothing double-counted: one assign + one submit in the log.
	events, err := store.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Kind != store.EventSubmit {
		t.Fatalf("log = %+v", events)
	}
}

func TestSubmitWithoutAssignmentTyped(t *testing.T) {
	_, srv, _, _ := newLeaseServer(t)
	c := &Client{BaseURL: srv.URL}
	err := c.Submit(context.Background(), "stranger", 0, task.Yes)
	if !IsNoPending(err) {
		t.Fatalf("want typed no_pending, got %v", err)
	}
	var ae *APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("status = %v", err)
	}
}

func TestRestoreRebuildsDedupAndLeases(t *testing.T) {
	// A recovered server must keep honoring idempotency keys and held
	// assignments from before the crash.
	ds := task.ProductMatching()
	st1, _ := baseline.NewRandomMV(ds, 3, nil, 5)
	logPath := filepath.Join(t.TempDir(), "ev.jsonl")
	l, _, err := store.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	so1 := NewServer(st1, ds, WithBackend(l))
	srv1 := httptest.NewServer(so1.Handler())
	c := &Client{BaseURL: srv1.URL}
	resA, _ := c.Assign(context.Background(), "a")
	if err := c.Submit(context.Background(), "a", resA.TaskID, task.Yes); err != nil {
		t.Fatal(err)
	}
	resB, _ := c.Assign(context.Background(), "b") // b holds a task across the crash
	srv1.Close()
	_ = l.Close()

	st2, _ := baseline.NewRandomMV(ds, 3, nil, 5)
	events, err := store.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Replay(events, st2); err != nil {
		t.Fatal(err)
	}
	so2 := NewServer(st2, ds)
	so2.Restore(events)
	srv2 := httptest.NewServer(so2.Handler())
	defer srv2.Close()
	c2 := &Client{BaseURL: srv2.URL}

	// a's pre-crash submit is still deduplicated.
	sr, err := c2.SubmitR(context.Background(), "a", resA.TaskID, task.Yes)
	if err != nil || !sr.Duplicate {
		t.Fatalf("post-recovery duplicate = %+v %v", sr, err)
	}
	// b's held assignment is redelivered, then submittable.
	res, err := c2.Assign(context.Background(), "b")
	if err != nil || !res.Redelivered || res.TaskID != resB.TaskID {
		t.Fatalf("post-recovery redelivery = %+v %v", res, err)
	}
	if err := c2.Submit(context.Background(), "b", resB.TaskID, task.No); err != nil {
		t.Fatal(err)
	}
	// The recovered server knows a and b for /inactive validation.
	if err := c2.Inactive(context.Background(), "a"); err != nil {
		t.Fatalf("inactive for recovered worker: %v", err)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, CodeLogWrite, "fsync lost")
			return
		}
		writeJSON(w, StatusResponse{Strategy: "X", Total: 1})
	}))
	defer backend.Close()
	var slept []time.Duration
	c := &Client{
		BaseURL: backend.URL,
		Retry:   &RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond},
		sleep:   func(d time.Duration) { slept = append(slept, d) },
		jitter:  func(n int64) int64 { return n - 1 }, // deterministic max draw
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Strategy != "X" || calls.Load() != 3 {
		t.Fatalf("status %+v after %d calls", st, calls.Load())
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule = %v", slept)
	}
}

func TestClientRetryGivesUp(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, CodeLogWrite, "down")
	}))
	defer backend.Close()
	c := &Client{
		BaseURL: backend.URL,
		Retry:   &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		sleep:   func(time.Duration) {},
	}
	_, err := c.Status(context.Background())
	if err == nil {
		t.Fatal("expected failure after retries exhausted")
	}
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Code != CodeLogWrite {
		t.Fatalf("want wrapped APIError, got %v", err)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusConflict, CodeNoPending, "nope")
	}))
	defer backend.Close()
	c := &Client{BaseURL: backend.URL, Retry: &RetryPolicy{MaxAttempts: 5}, sleep: func(time.Duration) {}}
	err := c.Submit(context.Background(), "w", 0, task.Yes)
	if !IsNoPending(err) {
		t.Fatalf("want no_pending, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried %d times", calls.Load())
	}
}

// asAPIError is errors.As without importing errors in every test.
func asAPIError(err error, target **APIError) bool {
	for err != nil {
		if ae, ok := err.(*APIError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
