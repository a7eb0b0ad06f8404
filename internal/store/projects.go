package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// DefaultProject is the project id the legacy single-project API maps to.
const DefaultProject = "default"

// ValidProjectID reports whether id is usable as a project name: 1-64
// characters from [A-Za-z0-9_-]. The character set keeps ids safe to embed
// in both URLs and directory names (no separators, no traversal).
func ValidProjectID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// ProjectStore is the Projects() namespace over a directory: every named
// project owns one Log in its own subdirectory, so a server hosting many
// projects keeps their histories isolated and a restarted server can
// enumerate and resume every project found on disk — the "crashed driver
// resumes instead of re-paying the crowd" property, per project.
//
// Layout: <root>/<id>/events.log holds the project's log (plus
// events.log.snap when snapshotting). The options given to OpenProjects
// apply to every project opened through it.
type ProjectStore struct {
	root string
	opts []Option

	mu     sync.Mutex
	open   map[string]*Log
	closed bool
}

// OpenProjects opens (creating if needed) the multi-project store rooted
// at root. The options are applied to every project log opened through
// the store.
func OpenProjects(root string, opts ...Option) (*ProjectStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &ProjectStore{root: root, opts: opts, open: map[string]*Log{}}, nil
}

// Project opens (creating if needed) the named project's log and returns
// it with what was recovered from disk. A project already opened through
// this store is returned as-is with a nil RecoverInfo — the history was
// reported when it was first opened.
func (ps *ProjectStore) Project(id string) (*Log, *RecoverInfo, error) {
	if !ValidProjectID(id) {
		return nil, nil, fmt.Errorf("store: invalid project id %q", id)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil, nil, fmt.Errorf("store: project store %s is closed", ps.root)
	}
	if l, ok := ps.open[id]; ok {
		return l, nil, nil
	}
	dir := filepath.Join(ps.root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l, info, err := Open(filepath.Join(dir, "events.log"), ps.opts...)
	if err != nil {
		return nil, nil, err
	}
	ps.open[id] = l
	return l, info, nil
}

// Projects returns the project ids present on disk, sorted. Every id a
// restarted server must resume appears here, whether or not it has been
// opened yet.
func (ps *ProjectStore) Projects() ([]string, error) {
	entries, err := os.ReadDir(ps.root)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, ent := range entries {
		if ent.IsDir() && ValidProjectID(ent.Name()) {
			ids = append(ids, ent.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Close closes every log opened through the store. Idempotent; the first
// close error wins.
func (ps *ProjectStore) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil
	}
	ps.closed = true
	var first error
	for _, l := range ps.open {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	ps.open = nil
	return first
}
