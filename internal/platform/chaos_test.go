package platform

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/sim"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

func TestFaultTransportDropResponseServerStillProcesses(t *testing.T) {
	ds := task.ProductMatching()
	st, _ := baseline.NewRandomMV(ds, 3, nil, 2)
	so := NewServer(st, ds)
	srv := httptest.NewServer(so.Handler())
	defer srv.Close()

	good := &Client{BaseURL: srv.URL}
	res, err := good.Assign(context.Background(), "w")
	if err != nil || !res.Assigned {
		t.Fatalf("assign: %+v %v", res, err)
	}

	// A transport that always loses the response: the server processes the
	// submit, the client sees only a transport error.
	ft := NewFaultTransport(nil, FaultConfig{DropResponse: 1})
	bad := &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: ft}}
	err = bad.Submit(context.Background(), "w", res.TaskID, task.Yes)
	if !IsInjectedFault(err) {
		t.Fatalf("want injected fault, got %v", err)
	}
	// The vote landed despite the lost response; a clean retry is a
	// duplicate ack, not a double count.
	sr, err := good.SubmitR(context.Background(), "w", res.TaskID, task.Yes)
	if err != nil || !sr.Duplicate {
		t.Fatalf("retry after lost response: %+v %v", sr, err)
	}
	if got := len(st.Job().Votes(res.TaskID)); got != 1 {
		t.Fatalf("votes = %d, want 1", got)
	}
}

func TestFaultTransportDuplicateDeliveryIsDeduped(t *testing.T) {
	ds := task.ProductMatching()
	st, _ := baseline.NewRandomMV(ds, 3, nil, 2)
	so := NewServer(st, ds)
	srv := httptest.NewServer(so.Handler())
	defer srv.Close()

	ft := NewFaultTransport(nil, FaultConfig{Duplicate: 1})
	c := &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: ft}}
	res, err := c.Assign(context.Background(), "w")
	if err != nil || !res.Assigned {
		t.Fatalf("assign: %+v %v", res, err)
	}
	// The submit is delivered twice; the client sees the second delivery's
	// response, which must be the idempotent duplicate ack.
	sr, err := c.SubmitR(context.Background(), "w", res.TaskID, task.No)
	if err != nil || !sr.Accepted || !sr.Duplicate {
		t.Fatalf("duplicated submit: %+v %v", sr, err)
	}
	if got := len(st.Job().Votes(res.TaskID)); got != 1 {
		t.Fatalf("votes = %d, want 1", got)
	}
	if s := ft.Stats(); s.Duplicated != 2 { // assign + submit both duplicated
		t.Fatalf("stats = %+v", s)
	}
}

// TestChaosSoak drives a full job through a faulty network with faulty
// workers and asserts the three fault-tolerance invariants: the job still
// completes, no task collects more submissions than its assignment quota,
// and replaying the (snapshot-compacted) event log reproduces the live
// server's /status and /results exactly.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped with -short")
	}
	const k = 3
	ds := task.ProductMatching()
	st, err := baseline.NewRandomMV(ds, k, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	storeOpts := []store.Option{store.WithFsync(8), store.WithSnapshotEvery(40)}
	l, _, err := store.Open(logPath, storeOpts...)
	if err != nil {
		t.Fatal(err)
	}
	so := NewServer(st, ds, WithBackend(l))
	so.SetAccounting(NewAccounting(HITConfig{}))
	so.SetLease(150 * time.Millisecond)
	stopSweeper := so.StartSweeper(20 * time.Millisecond)
	srv := httptest.NewServer(so.Handler())

	pool := sim.GeneratePool(ds, 10, sim.PoolOptions{Generalists: 4}, 7)
	retry := &RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		jobDone    bool
		duplicates int
		abandoned  int
		transports []*FaultTransport
	)
	deadline := time.Now().Add(30 * time.Second)
	for i := range pool {
		ft := NewFaultTransport(nil, FaultConfig{
			DropRequest:  0.05,
			DropResponse: 0.05,
			Duplicate:    0.04,
			DelayProb:    0.10,
			MaxDelay:     2 * time.Millisecond,
			Seed:         int64(100 + i),
		})
		transports = append(transports, ft)
		fw := &FaultyWorker{
			Agent: &WorkerAgent{
				Client: &Client{
					BaseURL:    srv.URL,
					HTTPClient: &http.Client{Transport: ft},
					Retry:      retry,
				},
				Profile: &pool[i],
				Dataset: ds,
				Rng:     rand.New(rand.NewSource(int64(1000 + i))),
			},
			DoubleSubmitProb: 0.05,
		}
		if i >= 6 {
			fw.AbandonProb = 0.25 // the unreliable tail of the crowd
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				done := jobDone
				mu.Unlock()
				if done {
					return
				}
				_, err := fw.Step(context.Background())
				if err == ErrAbandoned {
					mu.Lock()
					abandoned++
					mu.Unlock()
					return // crashed mid-HIT; only the sweeper can clean up
				}
				if err != nil {
					// Injected fault that outlived the retry budget; the
					// worker just tries again.
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if fw.JobDone {
					mu.Lock()
					jobDone = true
					duplicates += fw.Duplicates
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	stopSweeper()
	srv.Close()

	mu.Lock()
	done := jobDone
	mu.Unlock()
	if !done {
		t.Fatalf("job did not complete before the deadline (abandoned=%d)", abandoned)
	}

	// Capture the live server's view before releasing it.
	liveStatus, liveResults := observe(t, so)
	if !liveStatus.Done || liveStatus.Completed != ds.Len() {
		t.Fatalf("live status = %+v", liveStatus)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The chaos must have actually injected something or the test proves
	// nothing.
	var total FaultStats
	for _, ft := range transports {
		s := ft.Stats()
		total.DroppedRequests += s.DroppedRequests
		total.DroppedResponses += s.DroppedResponses
		total.Duplicated += s.Duplicated
	}
	if total.DroppedRequests == 0 || total.DroppedResponses == 0 || total.Duplicated == 0 {
		t.Fatalf("chaos injected too little: %+v", total)
	}

	// Invariant 2: no task collected more submissions than its quota, even
	// under duplicated deliveries and lease churn.
	l2, info, err := store.Open(logPath, storeOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	perTask := map[int]int{}
	for _, ev := range info.Events {
		if ev.Kind == store.EventSubmit {
			perTask[ev.Task]++
		}
	}
	for tid, n := range perTask {
		if n > k {
			t.Fatalf("task %d received %d submissions, quota is %d", tid, n, k)
		}
	}

	// Invariant 3: crash recovery from the compacted log reproduces the
	// live server's /status and /results exactly.
	st2, err := baseline.NewRandomMV(ds, k, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Replay(info.Events, st2); err != nil {
		t.Fatal(err)
	}
	so2 := NewServer(st2, ds)
	so2.SetAccounting(NewAccounting(HITConfig{}))
	so2.Restore(info.Events)
	recStatus, recResults := observe(t, so2)
	// HIT accounting is live-path bookkeeping (redeliveries renew rather
	// than reopen), so recovery compares the strategy-visible fields.
	liveStatus.HITs, recStatus.HITs = 0, 0
	liveStatus.CostUSD, recStatus.CostUSD = 0, 0
	liveStatus.Submitted, recStatus.Submitted = 0, 0
	if !reflect.DeepEqual(liveStatus, recStatus) {
		t.Fatalf("recovered status differs:\nlive %+v\nrec  %+v", liveStatus, recStatus)
	}
	if !reflect.DeepEqual(liveResults, recResults) {
		t.Fatalf("recovered results differ:\nlive %v\nrec  %v", liveResults, recResults)
	}
	t.Logf("soak: %d events (%d from snapshot), faults %+v, %d duplicates acked, %d workers abandoned",
		len(info.Events), info.FromSnapshot, total, duplicates, abandoned)
}

// observe fetches /status and /results through the HTTP handler so the soak
// compares exactly what clients would see.
func observe(t *testing.T, so *Server) (StatusResponse, map[int]string) {
	t.Helper()
	srv := httptest.NewServer(so.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}
