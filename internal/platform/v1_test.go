package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/task"
)

// exchange issues one raw request and returns status, content type, and the
// exact body bytes.
func exchange(t *testing.T, base, method, path, body string) (int, string, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
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
	return resp.StatusCode, resp.Header.Get("Content-Type"), b
}

// TestV1AndLegacyGoldenParity drives two identically-seeded servers through
// the same request sequence — one via the single-project /v1 paths the
// seed's clients use, one via the default project's scoped mount
// /v1/projects/default — and asserts every response is byte-identical: the
// single-project API is a mount of the default project, not a second
// behaviour.
func TestV1AndLegacyGoldenParity(t *testing.T) {
	newSrv := func() *httptest.Server {
		ds := task.ProductMatching()
		st, err := baseline.NewRandomMV(ds, 3, nil, 42)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(st, ds).Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	v1, scoped := newSrv(), newSrv()

	// {tid} is replaced with the task id captured from the first assign, so
	// the script adapts to whatever the seeded strategy hands out.
	steps := []struct{ method, path, body string }{
		{"GET", "/assign?workerId=w1", ""},
		{"POST", "/submit", `{"workerId":"w1","taskId":{tid},"answer":"YES"}`},
		{"POST", "/submit", `{"workerId":"w1","taskId":{tid},"answer":"YES"}`}, // duplicate ack
		{"GET", "/assign?workerId=w1", ""},                                     // fresh assignment
		{"GET", "/assign?workerId=w1", ""},                                     // idempotent redelivery
		{"GET", "/status", ""},
		{"GET", "/results", ""},
		{"GET", "/assign", ""},                                                 // 400 missing workerId
		{"POST", "/assign?workerId=w1", ""},                                    // 405
		{"DELETE", "/submit", ""},                                              // 405
		{"GET", "/inactive?workerId=w1", ""},                                   // 405
		{"POST", "/inactive?workerId=ghost", ""},                               // 400 unknown worker
		{"POST", "/inactive?workerId=w1", ""},                                  // 204 release
		{"POST", "/submit", `{"workerId":"w1","taskId":0,"answer":"MAYBE"}`},   // 400 bad answer
		{"POST", "/submit", `{"workerId":"nobody","taskId":0,"answer":"YES"}`}, // 409 no pending
		{"GET", "/status", ""},
	}
	tid := -1
	for i, st := range steps {
		body := st.body
		if strings.Contains(body, "{tid}") {
			if tid < 0 {
				t.Fatalf("step %d uses {tid} before any assign", i)
			}
			body = strings.ReplaceAll(body, "{tid}", strconv.Itoa(tid))
		}
		vs, vct, vb := exchange(t, v1.URL, st.method, "/v1"+st.path, body)
		ss, sct, sb := exchange(t, scoped.URL, st.method, "/v1/projects/default"+st.path, body)
		if vs != ss {
			t.Fatalf("step %d %s %s: status v1 %d != scoped %d", i, st.method, st.path, vs, ss)
		}
		if vct != sct {
			t.Fatalf("step %d %s %s: content type %q != %q", i, st.method, st.path, vct, sct)
		}
		if !bytes.Equal(vb, sb) {
			t.Fatalf("step %d %s %s: payloads differ\nv1:     %s\nscoped: %s", i, st.method, st.path, vb, sb)
		}
		if tid < 0 && strings.HasPrefix(st.path, "/assign?") {
			var ar AssignResponse
			if err := json.Unmarshal(vb, &ar); err != nil || !ar.Assigned {
				t.Fatalf("step %d: assign response %s (%v)", i, vb, err)
			}
			tid = ar.TaskID
		}
	}
}

// TestNotFoundTyped pins the typed JSON 404 for unknown paths on both the
// root and the /v1 prefix, including the seed's unversioned endpoint paths,
// which are no longer mounted.
func TestNotFoundTyped(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, req := range []struct{ method, path string }{
		{"GET", "/"}, {"GET", "/nope"}, {"GET", "/v1/nope"}, {"GET", "/v2/assign"},
		{"GET", "/assign?workerId=w"}, {"POST", "/submit"}, {"POST", "/inactive?workerId=w"},
		{"GET", "/status"}, {"GET", "/results"},
	} {
		status, ct, body := exchange(t, srv.URL, req.method, req.path, "")
		if status != http.StatusNotFound {
			t.Fatalf("%s %s: status %d", req.method, req.path, status)
		}
		if ct != "application/json" {
			t.Fatalf("%s %s: content type %q", req.method, req.path, ct)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Code != CodeNotFound {
			t.Fatalf("%s %s: body %s (%v)", req.method, req.path, body, err)
		}
	}
}

// TestMethodNotAllowedTyped pins the typed JSON 405 envelope.
func TestMethodNotAllowedTyped(t *testing.T) {
	srv, _ := newTestServer(t)
	status, _, body := exchange(t, srv.URL, "POST", "/v1/status", "")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/status: %d", status)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != CodeMethodNotAllowed {
		t.Fatalf("POST /v1/status body %s (%v)", body, err)
	}
}

// TestClientSpeaksV1 asserts every Client method targets the canonical
// /v1 paths.
func TestClientSpeaksV1(t *testing.T) {
	var paths []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.URL.Path)
		switch r.URL.Path {
		case "/v1/results":
			writeJSON(w, ResultsResponse{Results: map[int]string{}})
		case "/v1/inactive":
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, struct{}{})
		}
	}))
	defer backend.Close()
	ctx := context.Background()
	c := &Client{BaseURL: backend.URL}
	if _, err := c.Assign(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(ctx, "w", 0, task.Yes); err != nil {
		t.Fatal(err)
	}
	if err := c.Inactive(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Results(ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{"/v1/assign", "/v1/submit", "/v1/inactive", "/v1/status", "/v1/results"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v", paths)
	}
	for i, p := range want {
		if paths[i] != p {
			t.Fatalf("call %d hit %s, want %s", i, paths[i], p)
		}
	}
}

// TestClientContextCancellation checks a cancelled context aborts the call
// (including retry backoff) instead of burning the retry budget.
func TestClientContextCancellation(t *testing.T) {
	srv, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{BaseURL: srv.URL, Retry: &RetryPolicy{MaxAttempts: 8}}
	if _, err := c.Status(ctx); err == nil {
		t.Fatal("cancelled context must fail the call")
	}
}
