package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/platform"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// shardProc is one icrowd-server shard a test can kill and restart in
// place: same address (its ring identity), same data directory.
type shardProc struct {
	addr    string
	url     string
	dataDir string
	ds      *task.Dataset
	factory platform.StrategyFactory
	server  *platform.Server
	http    *http.Server
}

// startShard serves a shard the way `icrowd-server -data-dir` does: the
// default project and every named project get a strategy from factory and
// an event log under dataDir, and whatever history those logs hold is
// replayed before the listener opens. addr "" picks a free port.
func startShard(t *testing.T, addr, dataDir string, ds *task.Dataset, factory platform.StrategyFactory) *shardProc {
	t.Helper()
	ps, err := store.OpenProjects(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	b, info, err := ps.Project(store.DefaultProject)
	if err != nil {
		t.Fatal(err)
	}
	st, err := factory(store.DefaultProject)
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
	if _, err := so.EnableProjects(ps, factory); err != nil {
		t.Fatal(err)
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
		addr:    ln.Addr().String(),
		url:     "http://" + ln.Addr().String(),
		dataDir: dataDir,
		ds:      ds,
		factory: factory,
		server:  so,
		http:    hs,
	}
}

// restart serves the shard again at its address from its data directory.
func (p *shardProc) restart(t *testing.T) *shardProc {
	t.Helper()
	return startShard(t, p.addr, p.dataDir, p.ds, p.factory)
}

// kill drops the shard at the transport level (connections refused) and
// releases its logs so a restart can reopen them, simulating a crashed
// process whose durable state survives.
func (p *shardProc) kill(t *testing.T) {
	t.Helper()
	if err := p.http.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Close(); err != nil {
		t.Fatal(err)
	}
}

// projectEvents reads every project's event log under the shard's data
// directory, keyed by project ID.
func (p *shardProc) projectEvents(t *testing.T) map[string][]store.Event {
	t.Helper()
	entries, err := os.ReadDir(p.dataDir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]store.Event{}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		events, err := store.ReadFile(filepath.Join(p.dataDir, ent.Name(), "events.log"))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = events
	}
	return out
}

// startProductShard runs a RandomMV shard over the ProductMatching tasks,
// each project seeded from its ID so a restart rebuilds the same strategy.
func startProductShard(t *testing.T, dataDir string) *shardProc {
	t.Helper()
	ds := task.ProductMatching()
	return startShard(t, "", dataDir, ds, func(id string) (core.Strategy, error) {
		return baseline.NewRandomMV(ds, 3, nil, int64(hash64(id)&math.MaxInt64))
	})
}

// submitKey names one acknowledged submit across the fleet.
type submitKey struct {
	project, worker string
	task            int
}

// round performs one assign+submit cycle for worker in project through
// the router. It reports whether the worker still has work, and records an
// acked submit into acked.
func round(ctx context.Context, c *platform.ProjectClient, worker string, acked map[submitKey]bool) (more bool, err error) {
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
	acked[submitKey{c.ID(), worker, res.TaskID}] = true
	return true, nil
}

// TestChaosKillShard is the fleet-level soak: named projects spread over
// three real shards behind the router, one shard killed mid-load. The
// survivors' projects must keep serving, the victim's projects must fail
// only with the typed shard_unavailable error, readiness must flip 503 and
// back, and the restarted shard must resume each of its projects from its
// event log — each project's events in its owner's log only, and no lost
// or duplicated submits anywhere.
func TestChaosKillShard(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped with -short")
	}
	dir := t.TempDir()
	shards := make([]*shardProc, 3)
	for i := range shards {
		shards[i] = startProductShard(t, filepath.Join(dir, fmt.Sprintf("shard%d", i)))
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
	// Two projects per shard, created through the router on their owners.
	byShard := map[string][]*platform.ProjectClient{}
	var projects []*platform.ProjectClient
	for _, u := range urls {
		owned := ownedBy(rt, projectIDs(200), u)
		if len(owned) < 2 {
			t.Fatalf("only %d of 200 projects hash to %s", len(owned), u)
		}
		for _, id := range owned[:2] {
			pc := client.Project(id)
			if created, err := pc.Create(ctx); err != nil || !created {
				t.Fatalf("create %s: created=%v err=%v", id, created, err)
			}
			byShard[u] = append(byShard[u], pc)
			projects = append(projects, pc)
		}
	}
	workers := keys(8)
	acked := map[submitKey]bool{}

	// Phase A: everyone makes progress in every project while the fleet is
	// whole (two rounds each keeps every job unfinished for later phases).
	for _, pc := range projects {
		for _, w := range workers {
			for r := 0; r < 2; r++ {
				if _, err := round(ctx, pc, w, acked); err != nil {
					t.Fatalf("phase A: project %s worker %s: %v", pc.ID(), w, err)
				}
			}
		}
	}

	// Snapshot the victim's projects before the kill; the restart must
	// reproduce them from the logs alone.
	victim := shards[1]
	preStatus := map[string]platform.StatusResponse{}
	preSeq := map[string]int64{}
	for _, pc := range byShard[victim.url] {
		preStatus[pc.ID()] = directStatus(t, victim.url, pc.ID())
		preSeq[pc.ID()] = directLastSeq(t, victim.url, pc.ID())
		if preSeq[pc.ID()] == 0 {
			t.Fatalf("victim logged no events for %s in phase A", pc.ID())
		}
	}

	// Phase B: kill the victim mid-load.
	victim.kill(t)
	unavailable := 0
	for _, pc := range byShard[victim.url] {
		for _, w := range workers {
			_, err := round(ctx, pc, w, acked)
			if err == nil {
				t.Fatalf("phase B: project %s served from a dead shard", pc.ID())
			}
			var ae *platform.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("phase B: project %s got untyped error: %v", pc.ID(), err)
			}
			if !platform.IsShardUnavailable(err) {
				t.Fatalf("phase B: project %s got code %q, want shard_unavailable", pc.ID(), ae.Code)
			}
			if ae.RetryAfter < time.Second {
				t.Fatalf("phase B: Retry-After hint %v, want >= 1s", ae.RetryAfter)
			}
			unavailable++
		}
	}
	// The survivors' projects keep serving through the same router.
	for _, u := range []string{urls[0], urls[2]} {
		for _, pc := range byShard[u] {
			for _, w := range workers {
				if _, err := round(ctx, pc, w, acked); err != nil {
					t.Fatalf("phase B: survivor project %s worker %s: %v", pc.ID(), w, err)
				}
			}
		}
	}
	// The fleet reports itself unready while some projects are dark.
	if status, _ := get(t, front.URL+"/v1/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead shard: HTTP %d, want 503", status)
	}
	status, body := get(t, front.URL+"/v1/healthz")
	var roll HealthRollup
	if status != http.StatusOK || json.Unmarshal(body, &roll) != nil || roll.Status != "degraded" {
		t.Fatalf("healthz with dead shard: HTTP %d %s, want 200 degraded", status, body)
	}

	// Phase C: restart the victim at the same address from the same logs.
	shards[1] = victim.restart(t)
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
	// Resume, not reset: each replayed project serves its pre-kill state.
	for id, pre := range preStatus {
		post := directStatus(t, victim.url, id)
		if post.Completed != pre.Completed || post.Pending != pre.Pending {
			t.Fatalf("restart lost %s state: pre %+v post %+v", id, pre, post)
		}
		if seq := directLastSeq(t, victim.url, id); seq != preSeq[id] {
			t.Fatalf("restart lost %s log events: lastSeq pre %d post %d", id, preSeq[id], seq)
		}
	}

	// Drive every project to completion through the router.
	for _, pc := range projects {
		for more := true; more; {
			more = false
			for _, w := range workers {
				got, err := round(ctx, pc, w, acked)
				if err != nil {
					t.Fatalf("phase C: project %s worker %s: %v", pc.ID(), w, err)
				}
				more = more || got
			}
		}
		st, err := pc.Status(ctx)
		if err != nil || !st.Done || st.Completed != task.ProductMatching().Len() {
			t.Fatalf("project %s did not finish: %+v (%v)", pc.ID(), st, err)
		}
	}

	// Tear down and audit the logs.
	stopProbes()
	front.Close()
	for _, p := range shards {
		p.kill(t)
	}
	submits := map[submitKey]int{}
	for i, p := range shards {
		for id, events := range p.projectEvents(t) {
			// Ownership: a project's events live only in its owner's logs
			// — the router never mis-routes, and a project's history never
			// splits across shards.
			if owner := rt.ring.Get(id); len(events) > 0 && owner != urls[i] {
				t.Fatalf("shard %d logged %d events for project %s owned by %s", i, len(events), id, owner)
			}
			for _, ev := range events {
				if ev.Kind == store.EventSubmit {
					submits[submitKey{id, ev.Worker, ev.Task}]++
				}
			}
		}
	}
	// No duplicated submits anywhere in the fleet, despite the kill window
	// and the resubmits it caused.
	for k, n := range submits {
		if n > 1 {
			t.Fatalf("submit %+v logged %d times", k, n)
		}
	}
	// No lost submits: everything a client saw acked is durable.
	for k := range acked {
		if submits[k] == 0 {
			t.Fatalf("acked submit %+v missing from every shard log", k)
		}
	}
	if unavailable == 0 {
		t.Fatal("the kill window surfaced no shard_unavailable errors; the soak proved nothing")
	}
	t.Logf("soak: %d acked submits, %d durable submit events, %d shard_unavailable during outage",
		len(acked), len(submits), unavailable)
}

// directStatus reads one project's status from a shard, bypassing the
// router.
func directStatus(t *testing.T, url, project string) platform.StatusResponse {
	t.Helper()
	status, body := get(t, url+"/v1/projects/"+project+"/status")
	if status != http.StatusOK {
		t.Fatalf("direct status: HTTP %d", status)
	}
	var st platform.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// directLastSeq reads one project's LastSeq from a shard, bypassing the
// router.
func directLastSeq(t *testing.T, url, project string) int64 {
	t.Helper()
	status, body := get(t, url+"/v1/projects/"+project)
	if status != http.StatusOK {
		t.Fatalf("direct describe %s: HTTP %d", project, status)
	}
	var info platform.ProjectInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.LastSeq
}
