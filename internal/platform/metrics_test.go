package platform

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/obsv"
	"icrowd/internal/task"
)

// newMetricsServer builds a server with its own isolated registry so
// counter assertions are not polluted by other tests sharing the process
// default registry.
func newMetricsServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *Server, *obsv.Registry) {
	t.Helper()
	ds := task.ProductMatching()
	st, err := baseline.NewRandomMV(ds, 3, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(st, ds, opts...)
	reg := obsv.NewRegistry()
	s.UseRegistry(reg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s, reg
}

// TestMetricsEndpointAfterScript drives a scripted assign / submit /
// duplicate-submit / inactive sequence and asserts /v1/metrics exposes the
// expected counter and histogram series for every endpoint, plus the
// redelivery and dedup event counters.
func TestMetricsEndpointAfterScript(t *testing.T) {
	srv, _, _ := newMetricsServer(t)

	status, _, body := exchange(t, srv.URL, "GET", "/v1/assign?workerId=w1", "")
	var ar AssignResponse
	if status != http.StatusOK || json.Unmarshal(body, &ar) != nil || !ar.Assigned {
		t.Fatalf("assign: %d %s", status, body)
	}
	// Idempotent redelivery of the held task.
	if s, _, b := exchange(t, srv.URL, "GET", "/v1/assign?workerId=w1", ""); s != http.StatusOK {
		t.Fatalf("redeliver: %d %s", s, b)
	}
	submit := `{"workerId":"w1","taskId":` + strconv.Itoa(ar.TaskID) + `,"answer":"YES"}`
	if s, _, b := exchange(t, srv.URL, "POST", "/v1/submit", submit); s != http.StatusOK {
		t.Fatalf("submit: %d %s", s, b)
	}
	// Duplicate submit: acknowledged, counted as a dedup event.
	if s, _, b := exchange(t, srv.URL, "POST", "/v1/submit", submit); s != http.StatusOK {
		t.Fatalf("dup submit: %d %s", s, b)
	}
	if s, _, b := exchange(t, srv.URL, "GET", "/v1/assign?workerId=w1", ""); s != http.StatusOK {
		t.Fatalf("second assign: %d %s", s, b)
	}
	if s, _, b := exchange(t, srv.URL, "POST", "/v1/inactive?workerId=w1", ""); s != http.StatusNoContent {
		t.Fatalf("inactive: %d %s", s, b)
	}
	// One 4xx for the class counter.
	if s, _, _ := exchange(t, srv.URL, "GET", "/v1/assign", ""); s != http.StatusBadRequest {
		t.Fatalf("missing workerId should 400, got %d", s)
	}
	exchange(t, srv.URL, "GET", "/v1/status", "")
	exchange(t, srv.URL, "GET", "/v1/results", "")

	mStatus, ct, metrics := exchange(t, srv.URL, "GET", "/v1/metrics", "")
	if mStatus != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", mStatus)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	out := string(metrics)
	for _, want := range []string{
		// Request counters for all five endpoints (zeros render too, but
		// these have real traffic behind them).
		`icrowd_http_requests_total{endpoint="assign"} 4`,
		`icrowd_http_requests_total{endpoint="submit"} 2`,
		`icrowd_http_requests_total{endpoint="inactive"} 1`,
		`icrowd_http_requests_total{endpoint="status"} 1`,
		`icrowd_http_requests_total{endpoint="results"} 1`,
		// Latency histograms per endpoint.
		`icrowd_http_request_seconds_count{endpoint="assign"} 4`,
		`icrowd_http_request_seconds_bucket{endpoint="submit",le="+Inf"} 2`,
		`icrowd_http_request_seconds_count{endpoint="results"} 1`,
		// Status classes: 3 OK assigns + 1 bad request.
		`icrowd_http_responses_total{endpoint="assign",class="2xx"} 3`,
		`icrowd_http_responses_total{endpoint="assign",class="4xx"} 1`,
		`icrowd_http_responses_total{endpoint="inactive",class="2xx"} 1`,
		// Fault-tolerance event counters.
		"icrowd_assign_redelivered_total 1",
		"icrowd_submit_duplicate_total 1",
		"icrowd_lease_expired_total 0",
		"icrowd_log_write_failures_total 0",
		"icrowd_http_encode_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full metrics output:\n%s", out)
	}
}

// TestLegacyParityUnderMiddleware replays the byte-parity contract between
// the single-project /v1 mount and the default project's scoped mount with
// the observability middleware active on an isolated registry: wrapping
// must not change a single response byte between the two mounts.
func TestLegacyParityUnderMiddleware(t *testing.T) {
	newSrv := func() *httptest.Server {
		ds := task.ProductMatching()
		st, err := baseline.NewRandomMV(ds, 3, nil, 42)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(st, ds)
		s.UseRegistry(obsv.NewRegistry())
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	v1, scoped := newSrv(), newSrv()
	steps := []struct{ method, path, body string }{
		{"GET", "/assign?workerId=w1", ""},
		{"GET", "/assign?workerId=w1", ""}, // redelivery
		{"GET", "/status", ""},
		{"GET", "/results", ""},
		{"POST", "/inactive?workerId=w1", ""},
		{"GET", "/assign", ""}, // 400
	}
	for i, st := range steps {
		vs, vct, vb := exchange(t, v1.URL, st.method, "/v1"+st.path, st.body)
		ss, sct, sb := exchange(t, scoped.URL, st.method, "/v1/projects/default"+st.path, st.body)
		if vs != ss || vct != sct || !bytes.Equal(vb, sb) {
			t.Fatalf("step %d %s %s: v1 (%d %q %s) != scoped (%d %q %s)",
				i, st.method, st.path, vs, vct, vb, ss, sct, sb)
		}
	}
}

// TestMetricsMethodNotAllowed pins the typed 405 on /v1/metrics.
func TestMetricsMethodNotAllowed(t *testing.T) {
	srv, _, _ := newMetricsServer(t)
	status, _, body := exchange(t, srv.URL, "POST", "/v1/metrics", "")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics: %d", status)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != CodeMethodNotAllowed {
		t.Fatalf("POST /v1/metrics body %s (%v)", body, err)
	}
}

// TestTraceEndpointAndRequestID checks each instrumented request gets an
// X-Request-Id header and shows up in /v1/trace newest-first with its
// status annotation.
func TestTraceEndpointAndRequestID(t *testing.T) {
	srv, _, _ := newMetricsServer(t)
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("missing X-Request-Id header")
	}
	exchange(t, srv.URL, "GET", "/v1/results", "")

	status, _, body := exchange(t, srv.URL, "GET", "/v1/trace?n=2", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace: %d %s", status, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace body %s: %v", body, err)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("trace returned %d spans, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Name != "http.results" || tr.Spans[1].Name != "http.status" {
		t.Fatalf("spans not newest-first: %+v", tr.Spans)
	}
	if tr.Spans[1].TraceID != rid {
		t.Fatalf("status span trace %s != X-Request-Id %s", tr.Spans[1].TraceID, rid)
	}
	if _, err := obsv.ParseTraceID(rid); err != nil {
		t.Fatalf("X-Request-Id %q is not a 128-bit trace ID: %v", rid, err)
	}
	found := false
	for _, a := range tr.Spans[1].Attrs {
		if a == "status=200" {
			found = true
		}
	}
	if !found {
		t.Fatalf("status span missing status=200 annotation: %+v", tr.Spans[1])
	}
}

// TestNilRegistryDisablesMetrics checks UseRegistry(nil) turns the whole
// layer into no-ops without breaking any endpoint.
func TestNilRegistryDisablesMetrics(t *testing.T) {
	ds := task.ProductMatching()
	st, err := baseline.NewRandomMV(ds, 3, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(st, ds)
	s.UseRegistry(nil)
	s.SetTracer(nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	status, _, _ := exchange(t, srv.URL, "GET", "/v1/assign?workerId=w", "")
	if status != http.StatusOK {
		t.Fatalf("assign with metrics off: %d", status)
	}
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") != "" {
		t.Fatal("nil tracer must not emit X-Request-Id")
	}
	if mStatus, _, body := exchange(t, srv.URL, "GET", "/v1/metrics", ""); mStatus != http.StatusOK || len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("nil-registry /v1/metrics: %d %q", mStatus, body)
	}
}
