package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icrowd/internal/platform"
	"icrowd/internal/sim"
	"icrowd/internal/task"
)

func testCrowd(n int) []sim.Profile {
	pool := make([]sim.Profile, n)
	for i := range pool {
		pool[i] = sim.Profile{ID: string(rune('a' + i)), RequestRate: 1 / float64(i+1)}
	}
	return pool
}

// TestOneOutstandingTaskPerWorker hammers acquire/release from many
// goroutines: a worker is never handed out while it is already out, a
// retired worker is never handed out again, and acquire ends the job once
// every worker has retired.
func TestOneOutstandingTaskPerWorker(t *testing.T) {
	j := newJob("p", nil, testCrowd(6), 1)
	var mu sync.Mutex
	out := map[*worker]bool{}
	retired := map[*worker]bool{}
	var handed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				w := j.acquire()
				if w == nil {
					return
				}
				handed.Add(1)
				mu.Lock()
				if out[w] {
					t.Errorf("worker %s handed out twice", w.prof.ID)
				}
				if retired[w] {
					t.Errorf("retired worker %s handed out", w.prof.ID)
				}
				out[w] = true
				mu.Unlock()
				time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				retire := rng.Intn(50) == 0
				mu.Lock()
				out[w] = false
				if retire {
					retired[w] = true
				}
				mu.Unlock()
				j.release(w, retire)
			}
		}(int64(g))
	}
	wg.Wait()
	if len(retired) != 6 {
		t.Fatalf("job ended with %d of 6 workers retired", len(retired))
	}
	if handed.Load() < 6 {
		t.Fatalf("only %d acquisitions", handed.Load())
	}
}

// fakeProject serves one project's status and results as given.
func fakeProject(t *testing.T, st platform.StatusResponse, results map[int]string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/projects/p/status", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(st) //nolint:errcheck
	})
	mux.HandleFunc("/v1/projects/p/results", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(platform.ResultsResponse{Results: results}) //nolint:errcheck
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

func twoTasks() *task.Dataset {
	return &task.Dataset{Tasks: []task.Task{{ID: 0, Truth: task.Yes}, {ID: 1, Truth: task.No}}}
}

// TestJobEndRule: a job whose crowd has retired must be Done with a YES or
// NO answer for every task, or it is a failed job.
func TestJobEndRule(t *testing.T) {
	ds := twoTasks()
	for _, c := range []struct {
		name    string
		done    bool
		results map[int]string
		ok      bool
		correct int
	}{
		{"not done", false, map[int]string{0: "YES", 1: "NO"}, false, 0},
		{"undecided task", true, map[int]string{0: "YES", 1: "NONE"}, false, 0},
		{"missing task", true, map[int]string{0: "YES"}, false, 0},
		{"done", true, map[int]string{0: "YES", 1: "YES"}, true, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs := fakeProject(t, platform.StatusResponse{Done: c.done, Total: 2}, c.results)
			out := checkJob(context.Background(), (&platform.Client{BaseURL: hs.URL}).Project("p"), ds)
			if out.ok != c.ok || out.correct != c.correct {
				t.Fatalf("checkJob = %+v, want ok=%v correct=%d", out, c.ok, c.correct)
			}
		})
	}
}

// TestFailuresCount: a 429, a 5xx and a transport error each count as a
// failed operation whose latency misses every limit, and the worker on
// whose behalf it failed retires.
func TestFailuresCount(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(code)
			w.Write([]byte(`{"code":"x","message":"y"}`)) //nolint:errcheck
		}
	}
	shed := httptest.NewServer(status(http.StatusTooManyRequests))
	defer shed.Close()
	broken := httptest.NewServer(status(http.StatusInternalServerError))
	defer broken.Close()
	gone := httptest.NewServer(status(http.StatusOK))
	gone.Close() // nothing listens: a transport error

	for _, url := range []string{shed.URL, broken.URL, gone.URL} {
		c := &platform.Client{BaseURL: url}
		r := newRun(twoTasks(), nil, c, c, 1, "p", newRecorder(), 0)
		j := newJob("p", r.client.Project("p"), testCrowd(1), 1)
		w := j.acquire()
		if retire := r.round(context.Background(), j, w, time.Time{}); !retire {
			t.Errorf("%s: worker did not retire after a failed assign", url)
		}
		if r.rec.attempted != 1 || r.rec.failed != 1 {
			t.Errorf("%s: attempted=%d failed=%d, want 1 and 1", url, r.rec.attempted, r.rec.failed)
		}
		if got := r.rec.lat[opAssign]; len(got) != 1 || got[0] != failedLatencyMS {
			t.Errorf("%s: latency samples %v, want one failedLatencyMS", url, got)
		}
	}
}

// TestOpenLoopChargesFromSchedule: in an open loop a request that stalls
// delays the next one queued behind it, and that wait is charged to the
// next request because its latency runs from when it was due.
func TestOpenLoopChargesFromSchedule(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(platform.StatusResponse{}) //nolint:errcheck
	}))
	defer hs.Close()
	c := &platform.Client{BaseURL: hs.URL}
	r := newRun(nil, nil, c, c, 1, "p", newRecorder(), 0)
	j := newJob("p", r.client.Project("p"), nil, 1)
	arrivals := []arrival{{at: 0, status: true}, {at: 10 * time.Millisecond, status: true}}
	next := func() (arrival, bool) {
		if len(arrivals) == 0 {
			return arrival{}, false
		}
		a := arrivals[0]
		arrivals = arrivals[1:]
		return a, true
	}
	dispatch(next, 1, r.rec.lag, func(a arrival, due time.Time) { r.status(context.Background(), j, due) })
	lat := r.rec.lat[opStatus]
	if len(lat) != 2 {
		t.Fatalf("%d status samples, want 2", len(lat))
	}
	// The second poll was due 10ms in but could only be sent once the
	// first returned, after the 60ms stall.
	if want := float64(stall-10*time.Millisecond) / float64(time.Millisecond); lat[1] < want {
		t.Fatalf("second poll charged %.1fms, want at least %.1fms (the wait behind the stall)", lat[1], want)
	}
	if len(r.rec.lags) != 2 {
		t.Fatalf("%d lag samples, want 2", len(r.rec.lags))
	}
}
