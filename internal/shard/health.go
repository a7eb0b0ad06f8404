package shard

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Shard health tracking. The router learns about a dead shard two ways:
// passively, when proxying to it fails at the transport level (the fastest
// signal — the very request that hit the failure turns into a typed 503),
// and actively, from a background probe loop that GETs each shard's
// /v1/healthz. The probe loop is also the only path back UP: once a
// restarted shard answers its health check again the router re-admits it
// and its projects resume serving. Down shards stay in the ring — their
// projects answer shard_unavailable rather than remapping onto survivors,
// which would split each project's history across two event logs.

// ShardState is one shard's health as reported by /v1/shards.
type ShardState struct {
	// URL is the shard's base URL (its identity in the ring).
	URL string `json:"url"`
	// Up reports whether the router currently routes to the shard.
	Up bool `json:"up"`
	// LastErr is the most recent failure ("" while up).
	LastErr string `json:"lastErr,omitempty"`
	// Since is when the shard entered its current state.
	Since time.Time `json:"since"`
}

// Tracker maintains up/down state for a fixed set of shards. All methods
// are safe for concurrent use.
type Tracker struct {
	client  *http.Client
	timeout time.Duration

	mu     sync.Mutex
	states map[string]*ShardState
}

// NewTracker creates a tracker over the given shard base URLs. Shards
// start optimistically up — the first request or probe corrects the
// assumption within one round trip, and starting down would reject every
// request during the window before the first probe completes. client is
// used for probes (nil uses http.DefaultClient); timeout bounds each probe
// (<= 0 uses 2s).
func NewTracker(shards []string, client *http.Client, timeout time.Duration) *Tracker {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	t := &Tracker{client: client, timeout: timeout, states: map[string]*ShardState{}}
	now := time.Now()
	for _, s := range shards {
		t.states[s] = &ShardState{URL: s, Up: true, Since: now}
	}
	return t
}

// Up reports whether the router should route to shard. Unknown shards are
// down.
func (t *Tracker) Up(shard string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.states[shard]
	return ok && st.Up
}

// MarkDown records a failure against shard (the passive path: a proxy
// attempt hit a transport error). No-op for unknown shards.
func (t *Tracker) MarkDown(shard string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.states[shard]
	if !ok {
		return
	}
	if st.Up {
		st.Up = false
		st.Since = time.Now()
	}
	if err != nil {
		st.LastErr = err.Error()
	}
}

// markUp transitions shard up after a successful probe.
func (t *Tracker) markUp(shard string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.states[shard]
	if !ok || st.Up {
		return
	}
	st.Up = true
	st.LastErr = ""
	st.Since = time.Now()
}

// ProbeAll checks every shard's /v1/healthz once, transitioning each up or
// down by the result. A shard is healthy when the probe returns any 2xx —
// liveness, not readiness: a degraded-but-serving shard keeps its range.
func (t *Tracker) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, shard := range t.shards() {
		wg.Add(1)
		go func(shard string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, t.timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, shard+"/v1/healthz", nil)
			if err != nil {
				t.MarkDown(shard, err)
				return
			}
			resp, err := t.client.Do(req)
			if err != nil {
				t.MarkDown(shard, err)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				t.markUp(shard)
			} else {
				t.MarkDown(shard, &probeStatusError{status: resp.StatusCode})
			}
		}(shard)
	}
	wg.Wait()
}

// Snapshot returns every shard's state, sorted by URL.
func (t *Tracker) Snapshot() []ShardState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ShardState, 0, len(t.states))
	for _, st := range t.states {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// shards lists the tracked shard URLs.
func (t *Tracker) shards() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.states))
	for s := range t.states {
		out = append(out, s)
	}
	return out
}

// probeStatusError reports a probe that reached the shard but got a
// non-2xx answer.
type probeStatusError struct{ status int }

func (e *probeStatusError) Error() string {
	return "healthz returned HTTP " + strconv.Itoa(e.status)
}
