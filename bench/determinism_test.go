package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"icrowd/internal/experiments"
	"icrowd/internal/obsv"
	"icrowd/internal/platform"
	"icrowd/internal/sim"
	"icrowd/internal/task"
)

// inProcessServer serves the adaptive workload's stack (icrowd, k=3, q=10,
// named projects in memory) on an httptest server.
func inProcessServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv, closeSrv, err := buildServer(serveConfig{dataset: "ItemCompare", strategy: "icrowd", k: 3, q: 10, seed: itemCompareSeed}, nil, obsv.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		closeSrv() //nolint:errcheck // no store to flush
	})
	return hs
}

func itemCompare(t testing.TB) (*task.Dataset, []sim.Profile) {
	t.Helper()
	ds, crowd, err := experiments.LoadDataset(experiments.DatasetItemCompare, itemCompareSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds, crowd
}

// oneJob drives one job of the adaptive workload to its end over a single
// connection, as the reference pass does: a closed loop whose window
// closes at once keeps going until its first job has finished.
func oneJob(t testing.TB, url string, ds *task.Dataset, crowd []sim.Profile, seed int64, prefix string) jobResult {
	t.Helper()
	c := &platform.Client{BaseURL: url}
	r := newRun(ds, crowd, c, c, seed, prefix, newRecorder(), 1)
	r.closedLoop(context.Background(), 1, 0)
	res, ok := r.outcomes[0]
	if !ok {
		t.Fatalf("first job did not finish: %s", r.rec.failureSummary())
	}
	if r.rec.failed != 0 {
		t.Fatalf("%d failed operations: %s", r.rec.failed, r.rec.failureSummary())
	}
	return res
}

// TestAdaptiveJobDeterministic runs the same adaptive job twice against an
// in-process server: with one connection the request order is a function
// of the seed, so the final answers' accuracy and the answers the crowd
// gave must repeat exactly.
func TestAdaptiveJobDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full jobs (several seconds)")
	}
	hs := inProcessServer(t)
	ds, crowd := itemCompare(t)
	a := oneJob(t, hs.URL, ds, crowd, 7, "a")
	b := oneJob(t, hs.URL, ds, crowd, 7, "b")
	if a != b {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	if a.answers < 3*ds.Len() {
		t.Fatalf("%d answers for %d tasks at k=3", a.answers, ds.Len())
	}
	// checkJob, which finished each job, already required Done and a YES
	// or NO result for every task; check the result set directly as well.
	res, err := (&platform.Client{BaseURL: hs.URL}).Project("a0").Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < ds.Len(); tid++ {
		if v := res[tid]; v != "YES" && v != "NO" {
			t.Fatalf("task %d has final answer %q", tid, v)
		}
	}
}
