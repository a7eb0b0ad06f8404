package platform

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/store"
)

// SetLease enables assignment leases: every assignment (and every
// idempotent redelivery) stamps the worker with a deadline d from now, and
// SweepExpired reclaims assignments whose deadline passed — the crowd
// equivalent of an AMT HIT expiring when a worker silently abandons it.
// d <= 0 disables leases (assignments are held until /submit or
// /inactive, the seed behaviour).
func (s *Server) SetLease(d time.Duration) {
	s.mu.Lock()
	s.lease = d
	s.mu.Unlock()
}

// SetClock overrides the server's wall clock (tests drive lease expiry
// deterministically with a fake clock).
func (s *Server) SetClock(now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// clockNow reads the server's (possibly test-injected) clock.
func (s *Server) clockNow() time.Time {
	s.mu.Lock()
	now := s.now
	s.mu.Unlock()
	return now()
}

// deadlineLocked stamps a new lease deadline (zero when leases are off).
func (s *Server) deadlineLocked() time.Time {
	if s.lease <= 0 {
		return time.Time{}
	}
	return s.now().Add(s.lease)
}

// deadline stamps a new lease deadline under the server lock. Handlers call
// it before taking any project lock, so s.mu never nests inside p.mu.
func (s *Server) deadline() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadlineLocked()
}

// SweepExpired reclaims, across every project, each assignment whose lease
// deadline has passed: the departure is logged (write-ahead), the strategy
// releases the task via WorkerInactive, and the worker's HIT accounting is
// abandoned. It returns the reclaimed workers, sorted per project (workers
// from named projects are prefixed "id/"). Workers whose log append fails
// are left held and retried on the next sweep.
func (s *Server) SweepExpired() []string {
	s.mu.Lock()
	enabled := s.lease > 0
	s.mu.Unlock()
	if !enabled {
		return nil
	}
	// Each sweep pass is a root span of its own trace (there is no inbound
	// request to inherit from); the per-worker log appends hang off it as
	// children, so a slow sweep shows where the time went.
	sp := s.tracer.Start("lease.sweep")
	ctx := obsv.ContextWithSpan(context.Background(), sp)
	var reclaimed []string
	for _, p := range s.snapshotProjects() {
		for _, w := range s.sweepProject(ctx, p) {
			if p.id == store.DefaultProject {
				reclaimed = append(reclaimed, w)
			} else {
				reclaimed = append(reclaimed, p.id+"/"+w)
			}
		}
	}
	sp.Annotate("reclaimed=" + strconv.Itoa(len(reclaimed)))
	sp.End()
	return reclaimed
}

// sweepProject reclaims one project's expired leases (see SweepExpired).
func (s *Server) sweepProject(ctx context.Context, p *project) []string {
	now := s.clockNow()
	var expired []string
	p.mu.Lock()
	for w, h := range p.held {
		if !h.Deadline.IsZero() && now.After(h.Deadline) {
			expired = append(expired, w)
		}
	}
	p.mu.Unlock()
	sort.Strings(expired)
	var reclaimed []string
	for _, w := range expired {
		wl := s.lockWorker(p, w)
		// Re-check under the worker stripe: the lease may have been renewed
		// by a redelivery, or the task submitted, since the scan above.
		now = s.clockNow()
		p.mu.Lock()
		h, ok := p.held[w]
		stillExpired := ok && !h.Deadline.IsZero() && now.After(h.Deadline)
		p.mu.Unlock()
		if !stillExpired {
			wl.Unlock()
			continue
		}
		var logErr error
		p.withLogOrder(func() {
			if p.backend != nil {
				lsp := s.tracer.Child(ctx, "log.append")
				lsp.Annotate("worker=" + w)
				e := p.backend.AppendInactive(w)
				lsp.End()
				if e != nil {
					logErr = e
					return
				}
			}
			p.strategyLock()
			p.st.WorkerInactive(w)
			p.strategyUnlock()
		})
		if logErr != nil {
			s.obs.logFailures.Inc()
			wl.Unlock()
			continue // durability lost: keep the lease, retry next sweep
		}
		p.mu.Lock()
		delete(p.held, w)
		acct := p.acct
		p.pm.events(store.EventInactive)
		p.pm.setPending(len(p.held))
		p.mu.Unlock()
		if acct != nil {
			acct.OnInactive(w)
		}
		wl.Unlock()
		s.obs.leaseExpired.Inc()
		reclaimed = append(reclaimed, w)
	}
	return reclaimed
}

// StartSweeper runs SweepExpired every interval in a background goroutine
// until the returned stop function is called. Every pass — including the
// no-op ones — beats the sweeper heartbeat, which the /v1/readyz probe
// checks for freshness and the
// icrowd_sweeper_last_sweep_timestamp_seconds gauge exports.
func (s *Server) StartSweeper(interval time.Duration) (stop func()) {
	s.mu.Lock()
	s.sweepEvery = interval
	s.mu.Unlock()
	s.obs.sweepHB.BeatAt(s.clockNow())
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.SweepExpired()
				s.obs.sweepHB.BeatAt(s.clockNow())
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Restore rebuilds the default project's fault-tolerance bookkeeping (held
// assignments, known workers, and the submit idempotency index) from a
// replayed event history. Call it after store.Replay has rebuilt the
// strategy, with the same events. Outstanding assignments get a fresh
// lease from now.
func (s *Server) Restore(events []store.Event) {
	s.def.restore(events, s.deadline())
}

// restore is the per-project body of Server.Restore; dl is the fresh lease
// deadline to stamp on outstanding assignments.
func (p *project) restore(events []store.Event, dl time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range events {
		switch e.Kind {
		case store.EventAssign:
			p.seen[e.Worker] = true
			p.held[e.Worker] = heldTask{Task: e.Task, Deadline: dl}
		case store.EventSubmit:
			p.seen[e.Worker] = true
			delete(p.held, e.Worker)
			p.markAcceptedLocked(e.Worker, e.Task, e.Answer)
		case store.EventInactive:
			p.seen[e.Worker] = true
			delete(p.held, e.Worker)
		}
	}
	p.pm.setPending(len(p.held))
}
