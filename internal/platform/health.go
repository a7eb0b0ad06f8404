package platform

import (
	"fmt"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/store"
)

// Health probes. GET /v1/healthz is liveness: 200 whenever the process can
// run a handler. GET /v1/readyz is readiness: 200 only while the server's
// registered checks pass, 503 (with the failing checks named) otherwise,
// so a load balancer stops routing to an instance whose event log has gone
// unwritable or whose lease sweeper has wedged without killing it.
//
// The server registers two checks itself:
//
//   - "event_log": fails while the attached durable log's last append or
//     fsync failed (no log attached passes trivially — durability off is a
//     configuration, not a fault).
//   - "lease_sweeper": fails when leases are enabled, a sweeper was
//     started, and its heartbeat is older than sweeperStaleFactor sweep
//     intervals (a wedged sweeper silently stops reclaiming abandoned
//     assignments).
//
// Binaries add deployment-specific checks through Health().AddCheck.
// icrowd-server adds none: it builds its PPR basis before it listens.

// sweeperStaleFactor is how many sweep intervals may pass without a
// heartbeat before readiness reports the sweeper stale. Sweeps are quick;
// missing several intervals means the goroutine is wedged or dead.
const sweeperStaleFactor = 4

// initHealth (re)builds the probe surface against reg, re-registering the
// server's own readiness checks. Called from NewServer and UseRegistry.
func (s *Server) initHealth(reg *obsv.Registry) {
	h := obsv.NewHealth(reg)
	h.AddCheck("event_log", s.checkEventLog)
	h.AddCheck("lease_sweeper", s.checkSweeper)
	s.health = h
	if s.adm != nil {
		s.registerAdmissionCheck()
	}
}

// Health returns the server's probe surface so callers can add readiness
// checks (and hand the same probes to a standalone obsv.Serve listener).
func (s *Server) Health() *obsv.Health { return s.health }

// checkEventLog reports lost durability: some project backend's most recent
// append or fsync failed and has not succeeded since.
func (s *Server) checkEventLog() error {
	for _, p := range s.snapshotProjects() {
		if p.backend == nil {
			continue
		}
		if err := p.backend.Healthy(); err != nil {
			if p.id == store.DefaultProject {
				return fmt.Errorf("event log unwritable: %w", err)
			}
			return fmt.Errorf("project %s: event log unwritable: %w", p.id, err)
		}
	}
	return nil
}

// checkSweeper reports a stale lease sweeper. Freshness is judged against
// the server's clock (SetClock), matching how the sweeper itself stamps
// its heartbeat.
func (s *Server) checkSweeper() error {
	s.mu.Lock()
	interval := s.sweepEvery
	s.mu.Unlock()
	if interval <= 0 {
		return nil // no sweeper running: leases off or swept manually
	}
	window := time.Duration(sweeperStaleFactor) * interval
	if !s.obs.sweepHB.Fresh(s.clockNow(), window) {
		last := s.obs.sweepHB.Last()
		return fmt.Errorf("lease sweeper stale: last sweep %s, want one within %s",
			last.Format(time.RFC3339), window)
	}
	return nil
}
