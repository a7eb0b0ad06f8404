package platform

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// slowStrategy adds a fixed service delay to every strategy call,
// standing in for the estimation work a production strategy does. It
// deliberately hides any ConcurrencySafe marker of the wrapped strategy,
// so calls serialize on the server's strategy mutex: the service rate is
// bounded and 48 concurrent workers are guaranteed to overflow a 2+2
// admission capacity, with -race or without.
type slowStrategy struct {
	core.Strategy
	d time.Duration
}

func (s *slowStrategy) RequestTask(worker string) (int, bool) {
	time.Sleep(s.d)
	return s.Strategy.RequestTask(worker)
}

func (s *slowStrategy) SubmitAnswer(worker string, taskID int, ans task.Answer) error {
	time.Sleep(s.d)
	return s.Strategy.SubmitAnswer(worker, taskID, ans)
}

// TestChaosOverloadBurst is the overload chaos scenario: far more
// concurrent workers than the admission layer has capacity for, on top of
// a faulty network (drops, duplicates, delays), with raw single-shot
// clients so every shed is observable. The invariants under sustained
// burst overload:
//
//   - every failed call is either an injected transport fault or a typed
//     429 shed (overloaded / admission_timeout / throttled) — never a 5xx,
//     never a lost-lease 409;
//   - no task collects more submissions than its assignment quota, even
//     with duplicated deliveries racing the admission gate;
//   - the server still does useful work (some requests are admitted) and
//     actually shed (the overload was real).
func TestChaosOverloadBurst(t *testing.T) {
	const (
		k       = 3
		workers = 48
	)
	ds := task.ProductMatching()
	rmv, err := baseline.NewRandomMV(ds, k, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &slowStrategy{Strategy: rmv, d: 2 * time.Millisecond}
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := store.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	so := NewServer(st, ds, WithBackend(l))
	// Leases are on (with the sweeper running, as in production) but far
	// longer than the test, so any no_pending 409 would be a real lost
	// lease, not scheduled reclamation.
	so.SetLease(time.Minute)
	stopSweeper := so.StartSweeper(10 * time.Millisecond)
	defer stopSweeper()
	// Tiny capacity so 48 workers are guaranteed to overflow it: 2 running,
	// 2 waiting, everyone else shed within 20ms.
	so.SetAdmission(AdmissionConfig{MaxInFlight: 2, QueueDepth: 2, QueueTimeout: 20 * time.Millisecond})
	so.SetWorkerRateLimit(RateLimit{Rate: 50, Burst: 2})
	srv := httptest.NewServer(so.Handler())
	defer srv.Close()

	var (
		mu         sync.Mutex
		admitted   int
		sheds      int
		faults     int
		status5xx  int
		unexpected []string
		transports []*FaultTransport
	)
	classify := func(op string, err error) bool {
		if err == nil {
			mu.Lock()
			admitted++
			mu.Unlock()
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case IsInjectedFault(err):
			faults++
		case IsShed(err):
			sheds++
		default:
			var ae *APIError
			if errors.As(err, &ae) && ae.StatusCode >= 500 {
				status5xx++
			}
			if len(unexpected) < 10 {
				unexpected = append(unexpected, fmt.Sprintf("%s: %v", op, err))
			}
		}
		return false
	}

	var wg sync.WaitGroup
	deadline := time.Now().Add(1200 * time.Millisecond)
	for i := 0; i < workers; i++ {
		ft := NewFaultTransport(nil, FaultConfig{
			DropRequest:  0.03,
			DropResponse: 0.03,
			Duplicate:    0.03,
			DelayProb:    0.10,
			MaxDelay:     2 * time.Millisecond,
			Seed:         int64(500 + i),
		})
		transports = append(transports, ft)
		// Single-shot clients: no Retry, so the raw 429s surface instead of
		// being absorbed by backoff.
		c := &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: ft}}
		worker := fmt.Sprintf("burst-w%02d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				res, err := c.Assign(ctx, worker)
				if !classify("assign", err) {
					time.Sleep(time.Millisecond)
					continue
				}
				if res.Done {
					return
				}
				if !res.Assigned {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				classify("submit", c.Submit(ctx, worker, res.TaskID, task.Yes))
			}
		}()
	}
	wg.Wait()
	srv.CloseClientConnections()

	if len(unexpected) > 0 {
		t.Fatalf("errors that are neither injected faults nor typed sheds (5xx=%d):\n%s",
			status5xx, unexpected)
	}
	if status5xx > 0 {
		t.Fatalf("server returned %d 5xx responses under overload", status5xx)
	}
	if sheds == 0 {
		t.Fatal("burst never got shed: the overload scenario did not overload")
	}
	if admitted == 0 {
		t.Fatal("nothing was admitted: shedding must protect goodput, not replace it")
	}
	var injected int
	for _, ft := range transports {
		s := ft.Stats()
		injected += s.DroppedRequests + s.DroppedResponses + s.Duplicated
	}
	if injected == 0 {
		t.Fatal("chaos injected no faults; the run proves nothing about fault overlap")
	}

	// Quota invariant from the durable log: duplicated deliveries racing
	// the admission gate must not push any task past its k submissions.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := store.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	perTask := map[int]int{}
	for _, ev := range events {
		if ev.Kind == store.EventSubmit {
			perTask[ev.Task]++
		}
	}
	for tid, n := range perTask {
		if n > k {
			t.Fatalf("task %d received %d submissions under burst, quota is %d", tid, n, k)
		}
	}
	t.Logf("burst: %d admitted, %d shed, %d injected-fault errors, %d transport faults injected, %d tasks touched",
		admitted, sheds, faults, injected, len(perTask))
}
