package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/platform"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// shardProc is one icrowd-server shard the soak can kill and restart in
// place: same address (its ring identity), same event-log path.
type shardProc struct {
	idx     int
	addr    string
	url     string
	logPath string
	backend *store.Log
	server  *platform.Server
	http    *http.Server
}

// startShard opens (or reopens) the shard's event log, replays whatever
// history it holds into a fresh same-seed strategy, restores lease and
// idempotency state, and serves on addr ("" picks a free port).
func startShard(t *testing.T, idx int, addr, logPath string) *shardProc {
	t.Helper()
	b, info, err := store.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	ds := task.ProductMatching()
	st, err := baseline.NewRandomMV(ds, 3, nil, int64(1000+idx))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Events) > 0 {
		if err := store.Replay(info.Events, st); err != nil {
			t.Fatal(err)
		}
	}
	so := platform.NewServer(st, ds, platform.WithBackend(b))
	if len(info.Events) > 0 {
		so.Restore(info.Events)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: so.Handler()}
	go hs.Serve(ln) //nolint:errcheck // returns on Close
	return &shardProc{
		idx:     idx,
		addr:    ln.Addr().String(),
		url:     "http://" + ln.Addr().String(),
		logPath: logPath,
		backend: b,
		server:  so,
		http:    hs,
	}
}

// kill drops the shard at the transport level (connections refused) and
// releases its log file so a restart can reopen it, simulating a crashed
// process whose durable state survives.
func (p *shardProc) kill(t *testing.T) {
	t.Helper()
	if err := p.http.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.backend.Close(); err != nil {
		t.Fatal(err)
	}
}

// round performs one assign+submit cycle for worker through the router.
// It reports whether the worker still has work, and records an acked
// submit into acked.
func round(ctx context.Context, c *platform.Client, worker string, acked map[[2]interface{}]bool) (more bool, err error) {
	res, err := c.Assign(ctx, worker)
	if err != nil {
		return true, err
	}
	if !res.Assigned {
		return false, nil
	}
	if err := c.Submit(ctx, worker, res.TaskID, task.Yes); err != nil {
		return true, err
	}
	acked[[2]interface{}{worker, res.TaskID}] = true
	return true, nil
}

// TestChaosKillShard is the fleet-level soak: three real shards behind the
// router, one killed mid-load. Survivors must keep serving their key
// ranges, the dead range must fail only with the typed shard_unavailable
// error, readiness must flip 503 and back, and the restarted shard must
// resume from its event log — no lost or duplicated submits anywhere.
func TestChaosKillShard(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped with -short")
	}
	dir := t.TempDir()
	shards := make([]*shardProc, 3)
	for i := range shards {
		shards[i] = startShard(t, i, "", filepath.Join(dir, fmt.Sprintf("shard%d.events.log", i)))
	}
	urls := make([]string, len(shards))
	for i, p := range shards {
		urls[i] = p.url
	}
	rt, err := New(Config{Shards: urls, ProbeInterval: 50 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stopProbes := rt.Start()
	defer stopProbes()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := &platform.Client{BaseURL: front.URL} // no retries: every error surfaces
	ctx := context.Background()
	workers := keys(48)
	// Partition the crowd by ring owner so the soak can reason about who
	// the kill strands.
	byShard := map[string][]string{}
	for _, w := range workers {
		byShard[rt.ring.Get(w)] = append(byShard[rt.ring.Get(w)], w)
	}
	for _, u := range urls {
		// Majority vote needs 3 distinct voters per task, so a shard's job
		// can only finish if at least 3 workers hash to it.
		if len(byShard[u]) < 3 {
			t.Fatalf("only %d workers hash to %s; grow the crowd", len(byShard[u]), u)
		}
	}
	victim := shards[1]
	if len(byShard[victim.url]) == 0 {
		t.Fatalf("no workers hash to the victim shard; distribution: %v", byShard)
	}
	acked := map[[2]interface{}]bool{}

	// Phase A: everyone makes progress while the fleet is whole (two
	// rounds each keeps every shard's job unfinished for the later phases).
	for _, w := range workers {
		for r := 0; r < 2; r++ {
			if _, err := round(ctx, client, w, acked); err != nil {
				t.Fatalf("phase A: worker %s: %v", w, err)
			}
		}
	}

	// Snapshot the victim's externally visible state before the kill; the
	// restart must reproduce it from the log alone.
	preStatus := directStatus(t, victim.url)
	preSeq := directLastSeq(t, victim.url)
	if preSeq == 0 {
		t.Fatal("victim logged no events in phase A")
	}

	// Phase B: kill the victim mid-load.
	victim.kill(t)
	unavailable := 0
	for _, w := range byShard[victim.url] {
		for r := 0; r < 2; r++ {
			_, err := round(ctx, client, w, acked)
			if err == nil {
				t.Fatalf("phase B: worker %s succeeded against a dead shard", w)
			}
			var ae *platform.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("phase B: worker %s got untyped error: %v", w, err)
			}
			if !platform.IsShardUnavailable(err) {
				t.Fatalf("phase B: worker %s got code %q, want shard_unavailable", w, ae.Code)
			}
			if ae.RetryAfter < time.Second {
				t.Fatalf("phase B: Retry-After hint %v, want >= 1s", ae.RetryAfter)
			}
			unavailable++
		}
	}
	// Survivors keep serving their ranges through the same router.
	for _, p := range []*shardProc{shards[0], shards[2]} {
		for _, w := range byShard[p.url] {
			if _, err := round(ctx, client, w, acked); err != nil {
				t.Fatalf("phase B: survivor worker %s: %v", w, err)
			}
		}
	}
	// The fleet reports itself unready while a key range is dark.
	if status, _ := get(t, front.URL+"/v1/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead shard: HTTP %d, want 503", status)
	}
	status, body := get(t, front.URL+"/v1/healthz")
	var roll HealthRollup
	if status != http.StatusOK || json.Unmarshal(body, &roll) != nil || roll.Status != "degraded" {
		t.Fatalf("healthz with dead shard: HTTP %d %s, want 200 degraded", status, body)
	}

	// Phase C: restart the victim at the same address from the same log.
	shards[1] = startShard(t, 1, victim.addr, victim.logPath)
	deadline := time.Now().Add(5 * time.Second)
	for !rt.tracker.Up(victim.url) {
		if time.Now().After(deadline) {
			t.Fatal("router never re-admitted the restarted shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status, _ := get(t, front.URL+"/v1/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after re-admit: HTTP %d, want 200", status)
	}
	// Resume, not reset: the replayed shard serves its pre-kill state.
	postStatus := directStatus(t, victim.url)
	if postStatus.Completed != preStatus.Completed || postStatus.Pending != preStatus.Pending {
		t.Fatalf("restart lost state: pre %+v post %+v", preStatus, postStatus)
	}
	if postSeq := directLastSeq(t, victim.url); postSeq != preSeq {
		t.Fatalf("restart lost log events: lastSeq pre %d post %d", preSeq, postSeq)
	}

	// Drive the whole crowd to completion through the router.
	for _, w := range workers {
		for r := 0; r < 40; r++ {
			more, err := round(ctx, client, w, acked)
			if err != nil {
				t.Fatalf("phase C: worker %s: %v", w, err)
			}
			if !more {
				break
			}
		}
	}
	var st platform.StatusResponse
	status, body = get(t, front.URL+"/v1/status")
	if status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("status: HTTP %d %s", status, body)
	}
	if !st.Done || st.Completed != task.ProductMatching().Len() {
		t.Fatalf("fleet did not finish the job: %+v", st)
	}

	// Tear down and audit the logs.
	stopProbes()
	front.Close()
	for _, p := range shards {
		p.kill(t)
	}
	type wt struct {
		worker string
		task   int
	}
	submits := map[wt]int{}
	for i, p := range shards {
		events, err := store.ReadFile(p.logPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			// Ownership: a shard's log only ever holds its own workers'
			// events — the router never mis-routes, and a worker's history
			// never splits across logs.
			if owner := rt.ring.Get(ev.Worker); owner != urls[i] {
				t.Fatalf("shard %d logged event for worker %s owned by %s", i, ev.Worker, owner)
			}
			if ev.Kind == store.EventSubmit {
				submits[wt{ev.Worker, ev.Task}]++
			}
		}
	}
	// No duplicated submits anywhere in the fleet, despite the kill window
	// and the resubmits it caused.
	for k, n := range submits {
		if n > 1 {
			t.Fatalf("submit (%s, %d) logged %d times", k.worker, k.task, n)
		}
	}
	// No lost submits: everything a client saw acked is durable in some log.
	for k := range acked {
		if submits[wt{k[0].(string), k[1].(int)}] == 0 {
			t.Fatalf("acked submit (%v, %v) missing from every shard log", k[0], k[1])
		}
	}
	if unavailable == 0 {
		t.Fatal("the kill window surfaced no shard_unavailable errors; the soak proved nothing")
	}
	t.Logf("soak: %d acked submits, %d durable submit events, %d shard_unavailable during outage",
		len(acked), len(submits), unavailable)
}

// directStatus reads one shard's /v1/status bypassing the router.
func directStatus(t *testing.T, url string) platform.StatusResponse {
	t.Helper()
	status, body := get(t, url+"/v1/status")
	if status != http.StatusOK {
		t.Fatalf("direct status: HTTP %d", status)
	}
	var st platform.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// directLastSeq reads one shard's default-project LastSeq bypassing the
// router.
func directLastSeq(t *testing.T, url string) int64 {
	t.Helper()
	status, body := get(t, url+"/v1/projects")
	if status != http.StatusOK {
		t.Fatalf("direct projects: HTTP %d", status)
	}
	var list platform.ProjectListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	for _, p := range list.Projects {
		if p.ID == "default" {
			return p.LastSeq
		}
	}
	t.Fatal("default project missing from direct listing")
	return 0
}
