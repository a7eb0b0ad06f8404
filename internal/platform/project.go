package platform

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"icrowd/internal/store"
)

// Multi-project serving. A server always hosts the default project (the
// strategy passed to NewServer, answering /v1/* and /v1/projects/default/*);
// EnableProjects adds named projects on top: each owns a fresh strategy
// built by the StrategyFactory, its own backend inside a store.ProjectStore,
// and its own lease/idempotency state, served under /v1/projects/{id}/*.
// On restart, EnableProjects resumes every project found on disk — each
// project's history is replayed through a freshly built strategy, so a
// crashed driver resumes instead of re-paying the crowd, per project.

// ProjectInfo describes one hosted project (GET /v1/projects and
// GET /v1/projects/{id}).
type ProjectInfo struct {
	ID       string `json:"id"`
	Strategy string `json:"strategy"`
	// LastSeq is the highest event sequence number the project's backend
	// holds (0 when the project has no durable backend or no events).
	LastSeq int64 `json:"lastSeq"`
	// Pending is the number of workers currently holding an assignment.
	Pending int `json:"pending"`
}

// ProjectListResponse is returned by GET /v1/projects.
type ProjectListResponse struct {
	Projects []ProjectInfo `json:"projects"`
}

// ProjectCreateResponse is returned by PUT /v1/projects/{id}.
type ProjectCreateResponse struct {
	ID string `json:"id"`
	// Created is false when the project already existed (the PUT is
	// idempotent).
	Created bool `json:"created"`
}

// EnableProjects turns on named-project serving: ps supplies each project's
// durable backend (rooted in its own subdirectory) and factory builds each
// project's strategy. Every project already on disk under ps is resumed —
// strategy rebuilt, history replayed, leases and idempotency state
// restored — and the count of resumed projects is returned. Call before
// the server takes traffic; ps may be nil to allow only in-memory projects.
func (s *Server) EnableProjects(ps *store.ProjectStore, factory StrategyFactory) (int, error) {
	if factory == nil {
		return 0, errors.New("platform: EnableProjects requires a strategy factory")
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	s.pstore = ps
	s.factory = factory
	if ps == nil {
		return 0, nil
	}
	ids, err := ps.Projects()
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, id := range ids {
		if s.lookup(id) != nil {
			continue // already hosted (the default project, typically)
		}
		if _, err := s.openProject(id); err != nil {
			return resumed, fmt.Errorf("resume project %s: %w", id, err)
		}
		resumed++
	}
	return resumed, nil
}

// CreateProject opens (or resumes, if its directory already exists on
// disk) the named project and starts serving it. It reports whether the
// project was newly hosted; creating an already-hosted project is a no-op.
func (s *Server) CreateProject(id string) (bool, error) {
	if !store.ValidProjectID(id) {
		return false, fmt.Errorf("platform: invalid project id %q", id)
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if s.lookup(id) != nil {
		return false, nil
	}
	if _, err := s.openProject(id); err != nil {
		return false, err
	}
	return true, nil
}

// openProject builds, resumes and registers one named project. The caller
// holds createMu, so each project is opened and replayed exactly once.
func (s *Server) openProject(id string) (*project, error) {
	if s.factory == nil {
		return nil, errors.New("platform: named projects are not enabled (call EnableProjects)")
	}
	st, err := s.factory(id)
	if err != nil {
		return nil, fmt.Errorf("build strategy: %w", err)
	}
	p := s.newProject(id, st)
	if s.pstore != nil {
		b, info, err := s.pstore.Project(id)
		if err != nil {
			return nil, err
		}
		p.backend = b
		if info != nil {
			if info.Tail != nil {
				s.logger.LogAttrs(context.Background(), slog.LevelWarn, "repaired torn event-log tail",
					slog.String("project", id),
					slog.String("detail", info.Tail.String()))
			}
			if len(info.Events) > 0 {
				if err := store.Replay(info.Events, st); err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				p.restore(info.Events, s.deadline())
			}
		}
	}
	s.pmu.Lock()
	s.projects[id] = p
	s.pmu.Unlock()
	return p, nil
}

// handleProjectList serves GET /v1/projects: every hosted project,
// default first, the rest sorted by id.
func (s *Server) handleProjectList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
		return
	}
	resp := ProjectListResponse{Projects: []ProjectInfo{}}
	for _, p := range s.snapshotProjects() {
		resp.Projects = append(resp.Projects, p.info())
	}
	s.writeJSON(r, w, resp)
}

// handleProjectRoot serves /v1/projects/{project}: GET describes the
// project, PUT creates it idempotently (201 when newly hosted, 200 when it
// already existed).
func (s *Server) handleProjectRoot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("project")
	switch r.Method {
	case http.MethodGet:
		p := s.lookup(id)
		if p == nil {
			s.writeError(r, w, http.StatusNotFound, CodeProjectNotFound, "no such project: "+id)
			return
		}
		s.writeJSON(r, w, p.info())
	case http.MethodPut:
		if s.factory == nil {
			s.writeError(r, w, http.StatusBadRequest, CodeBadRequest,
				"named projects are not enabled on this server")
			return
		}
		created, err := s.CreateProject(id)
		if err != nil {
			if !store.ValidProjectID(id) {
				s.writeError(r, w, http.StatusBadRequest, CodeBadRequest, err.Error())
				return
			}
			s.writeError(r, w, http.StatusServiceUnavailable, CodeLogWrite, err.Error())
			return
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		s.writeJSONStatus(r, w, status, ProjectCreateResponse{ID: id, Created: created})
	default:
		s.writeError(r, w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "method not allowed")
	}
}

// info snapshots the project's descriptor.
func (p *project) info() ProjectInfo {
	name := p.st.Name()
	p.mu.Lock()
	pending := len(p.held)
	p.mu.Unlock()
	info := ProjectInfo{ID: p.id, Strategy: name, Pending: pending}
	if p.backend != nil {
		info.LastSeq = p.backend.LastSeq()
	}
	return info
}
