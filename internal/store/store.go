// Package store provides durable event logging for the Appendix-A
// deployment: every assignment-relevant event (a task assignment, a worker's
// submitted answer, a worker leaving) is appended to a checksummed
// JSON-lines log, and a crashed or restarted server rebuilds its strategy
// state by replaying the log through a fresh strategy instance.
//
// Strategies in this repository are deterministic state machines over the
// sequence of (RequestTask, SubmitAnswer, WorkerInactive) calls, which is
// what makes event-sourcing sufficient: replaying the recorded submissions
// in order reproduces the assignments, the consensus bookkeeping and the
// accuracy estimates.
//
// # Durability model
//
// Each log line is framed as "crc32c<SP>json": an 8-hex-digit CRC-32
// (Castagnoli) over the JSON payload, catching torn or bit-flipped records
// that still parse as JSON. Unframed plain-JSON lines from older logs are
// accepted without checksum verification. Open repairs a torn tail — a
// final record cut short by a crash — by truncating the file back to its
// longest valid prefix (the discarded bytes are preserved next to the log
// in a ".corrupt" file). A failed append leaves the log as it was. Fsync
// frequency is set with WithFsync, and WithSnapshotEvery enables periodic
// snapshot+compaction so the live log stays short: the full event history
// is atomically written to one checksummed snapshot file next to the log
// and the log is truncated, making recovery read a single bulk blob plus a
// bounded tail instead of an ever-growing line-by-line scan.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"icrowd/internal/core"
	"icrowd/internal/task"
)

// EventKind discriminates log entries.
type EventKind string

// Event kinds.
const (
	// EventAssign records a microtask being assigned to a worker. It must
	// be logged for every successful RequestTask: whether a worker holds an
	// assignment influences the scheme computed for everyone else, so the
	// log is only a faithful state recording when assignments appear in it
	// in their original order.
	EventAssign EventKind = "assign"
	// EventSubmit records a worker's answer to an assigned microtask.
	EventSubmit EventKind = "submit"
	// EventInactive records a worker leaving (releasing their assignment).
	EventInactive EventKind = "inactive"
)

// Event is one log entry.
type Event struct {
	// Seq is the 1-based sequence number assigned at append time.
	Seq int64 `json:"seq"`
	// Kind discriminates the payload.
	Kind EventKind `json:"kind"`
	// Worker is the worker the event concerns.
	Worker string `json:"worker"`
	// Task is the microtask (submit events only).
	Task int `json:"task,omitempty"`
	// Answer is "YES" or "NO" (submit events only).
	Answer string `json:"answer,omitempty"`
}

// WriteError is the typed error returned when appending to the log fails.
// It wraps the underlying I/O error; servers should treat it as a signal
// that durability is compromised (e.g. respond 503, not 500).
type WriteError struct {
	// Op is the failing operation ("append", "sync", "marshal",
	// "truncate").
	Op string
	// Path is the log file path ("" for in-memory logs).
	Path string
	// Err is the underlying error.
	Err error
}

func (e *WriteError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("store: log %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("store: log %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap returns the underlying I/O error.
func (e *WriteError) Unwrap() error { return e.Err }

// Tail describes the unreplayable suffix found at the end of a damaged
// log: everything from the first bad record (torn write, CRC mismatch,
// sequence gap) onward.
type Tail struct {
	// Line is the 1-based line number of the first bad record.
	Line int
	// Offset is the byte offset where the valid prefix ends.
	Offset int64
	// Reason describes why the record was rejected.
	Reason string
	// TrailingLines counts the discarded lines (the bad record and
	// everything after it).
	TrailingLines int
}

func (t *Tail) String() string {
	return fmt.Sprintf("line %d (offset %d, %d line(s) dropped): %s",
		t.Line, t.Offset, t.TrailingLines, t.Reason)
}

// RecoverInfo reports what Open reconstructed.
type RecoverInfo struct {
	// Events is the full replayable history (snapshot + log prefix).
	Events []Event
	// FromSnapshot is how many of Events came from the snapshot file.
	FromSnapshot int
	// Tail is non-nil when the log ended in a torn or corrupt suffix that
	// was dropped (after being preserved in a ".corrupt" file).
	Tail *Tail
}

// Log is an append-only JSON-lines event log with per-record checksums:
// one project's durable history.
type Log struct {
	mu        sync.Mutex
	w         io.Writer
	f         *os.File // owned file when opened via Open
	path      string
	next      int64
	size      int64 // length of f after the last successful append
	syncEvery int
	snapPath  string // "" when snapshotting is off
	snapEvery int
	sinceSync int
	sinceSnap int
	retained  []Event // full history, kept only when snapshotting
	snapErr   error   // last best-effort snapshot failure
	lastErr   error   // last append/sync failure, cleared by a success
	broken    error   // a failed append could not be rolled back
}

// config is the option set shared by Open and OpenProjects.
type config struct {
	syncEvery     int
	snapshotEvery int
}

// Option configures Open and OpenProjects.
type Option func(*config)

// WithFsync controls fsync frequency: 0 never fsyncs (the OS decides),
// 1 fsyncs after every append, N fsyncs after every N appends.
func WithFsync(every int) Option {
	return func(c *config) { c.syncEvery = every }
}

// WithSnapshotEvery enables snapshot+compaction every n appends; the
// snapshot lands next to the log, at path + ".snap".
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapshotEvery = n }
}

// Open opens (creating if needed) the log at path, loads its snapshot
// (when snapshotting is on and one exists), scans and repairs the log as
// described in the package comment, and returns the log plus what was
// recovered. Pass RecoverInfo.Events to Replay to rebuild strategy state.
func Open(path string, opts ...Option) (*Log, *RecoverInfo, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	l := &Log{path: path, next: 1, syncEvery: cfg.syncEvery, snapEvery: cfg.snapshotEvery}
	var snap []Event
	if cfg.snapshotEvery > 0 {
		l.snapPath = path + ".snap"
		s, err := ReadSnapshot(l.snapPath)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		snap = s
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := l.load(f, snap)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, info, nil
}

// load scans the freshly opened log file f, merges it with the snapshot
// events, repairs a damaged tail, and binds l to f.
func (l *Log) load(f *os.File, snap []Event) (*RecoverInfo, error) {
	logEvents, tail, err := ReadTolerant(f)
	if err != nil {
		return nil, err
	}
	merged, err := mergeHistory(snap, logEvents, l.path, l.snapPath)
	if err != nil {
		return nil, err
	}
	if tail != nil {
		// Repair: preserve the damaged suffix, then truncate it away so
		// future appends extend the valid prefix.
		if err := preserveCorrupt(l.path, tail.Offset); err != nil {
			return nil, err
		}
		if err := f.Truncate(tail.Offset); err != nil {
			return nil, err
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	l.w, l.f, l.size = f, f, fi.Size()
	if n := len(merged); n > 0 {
		l.next = merged[n-1].Seq + 1
	}
	if l.snapPath != "" {
		l.retained = append(l.retained, merged...)
		l.sinceSnap = len(logEvents)
	}
	return &RecoverInfo{Events: merged, FromSnapshot: len(snap), Tail: tail}, nil
}

// mergeHistory combines snapshot events with the live log's events,
// tolerating the overlap left by a crash between snapshot write and log
// truncation, and refusing gaps (a compacted log opened without its
// snapshot would otherwise silently lose its prefix).
func mergeHistory(snap, logEvents []Event, logPath, snapPath string) ([]Event, error) {
	var lastSnap int64
	if n := len(snap); n > 0 {
		lastSnap = snap[n-1].Seq
	}
	merged := append([]Event(nil), snap...)
	want := lastSnap + 1
	for _, e := range logEvents {
		if e.Seq <= lastSnap {
			continue // crash between snapshot and compaction: already snapshotted
		}
		if e.Seq != want {
			if snapPath == "" {
				return nil, fmt.Errorf("store: log %s starts at seq %d, want %d (compacted log without its snapshot?)", logPath, e.Seq, want)
			}
			return nil, fmt.Errorf("store: log %s has seq %d after snapshot %s ending at %d (missing events)", logPath, e.Seq, snapPath, lastSnap)
		}
		merged = append(merged, e)
		want++
	}
	return merged, nil
}

// preserveCorrupt copies the bytes from offset to EOF into path+".corrupt"
// so a repair never silently destroys data.
func preserveCorrupt(path string, offset int64) error {
	src, err := os.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	if _, err := src.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	dst, err := os.Create(path + ".corrupt")
	if err != nil {
		return err
	}
	defer dst.Close()
	_, err = io.Copy(dst, src)
	return err
}

// NewWriter wraps an arbitrary writer (for tests and in-memory use).
func NewWriter(w io.Writer) *Log { return &Log{w: w, next: 1} }

// Close fsyncs any appends not yet synced under the fsync policy and
// closes the underlying file if the log owns one; the first error wins.
// Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.syncEvery > 0 && l.sinceSync > 0 {
		if serr := l.f.Sync(); serr != nil {
			err = &WriteError{Op: "sync", Path: l.path, Err: serr}
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// AppendAssign records a successful task assignment.
func (l *Log) AppendAssign(worker string, taskID int) error {
	return l.append(Event{Kind: EventAssign, Worker: worker, Task: taskID})
}

// AppendSubmit records a submitted answer.
func (l *Log) AppendSubmit(worker string, taskID int, ans task.Answer) error {
	if ans != task.Yes && ans != task.No {
		return errors.New("store: answer must be YES or NO")
	}
	return l.append(Event{Kind: EventSubmit, Worker: worker, Task: taskID, Answer: ans.String()})
}

// AppendInactive records a worker leaving.
func (l *Log) AppendInactive(worker string) error {
	return l.append(Event{Kind: EventInactive, Worker: worker})
}

// Append stamps e with the next sequence number and durably records it.
// The Kind must be one of the Event kinds; Seq is assigned by the log
// regardless of what the caller set.
func (l *Log) Append(e Event) (Event, error) {
	switch e.Kind {
	case EventAssign, EventSubmit, EventInactive:
	default:
		return Event{}, fmt.Errorf("store: append: unknown kind %q", e.Kind)
	}
	return l.appendEvent(e)
}

// LastSeq returns the sequence number of the most recent event (0 when
// empty).
func (l *Log) LastSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is the per-record CRC-32 (Castagnoli) over a JSON payload.
func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// frameLine wraps the marshalled event in the "crc32c<SP>json\n" format.
func frameLine(b []byte) []byte {
	out := make([]byte, 0, len(b)+10)
	out = fmt.Appendf(out, "%08x ", checksum(b))
	out = append(out, b...)
	return append(out, '\n')
}

func (l *Log) append(e Event) error {
	_, err := l.appendEvent(e)
	return err
}

// appendEvent stamps the sequence number under the lock and writes the
// framed record; it returns the stamped event. A failed write or fsync
// leaves the log as it was (see rollback).
func (l *Log) appendEvent(e Event) (Event, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return Event{}, l.broken
	}
	e.Seq = l.next
	b, err := json.Marshal(e)
	if err != nil {
		l.lastErr = &WriteError{Op: "marshal", Path: l.path, Err: err}
		return Event{}, l.lastErr
	}
	line := frameLine(b)
	if _, err := l.w.Write(line); err != nil {
		return Event{}, l.rollback("append", err)
	}
	if l.syncEvery > 0 && l.f != nil {
		if l.sinceSync+1 >= l.syncEvery {
			if err := l.f.Sync(); err != nil {
				return Event{}, l.rollback("sync", err)
			}
			l.sinceSync = 0
		} else {
			l.sinceSync++
		}
	}
	l.next++
	l.size += int64(len(line))
	l.lastErr = nil
	if l.snapPath != "" {
		l.retained = append(l.retained, e)
		l.sinceSnap++
		if l.sinceSnap >= l.snapEvery {
			l.snapshotLocked()
		}
	}
	return e, nil
}

// rollback records a failed write or fsync and truncates the owned file
// back to its length before the append, so the failed record can never be
// read back and the next append reuses its sequence number. When the
// truncate fails too, the file may hold the failed record, so the log
// refuses every later append until it is reopened (where Open's recovery
// decides what survives). A NewWriter log has no file to roll back.
func (l *Log) rollback(op string, err error) error {
	werr := &WriteError{Op: op, Path: l.path, Err: err}
	l.lastErr = werr
	if l.f != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = &WriteError{Op: "truncate", Path: l.path,
				Err: fmt.Errorf("undoing failed %s: %w (appends refused until reopened)", op, terr)}
			l.lastErr = l.broken
		}
	}
	return werr
}

// Healthy reports the log's durability health: nil while the most recent
// append (including its fsync, under a sync policy) succeeded, and the
// failing append's error until a later append succeeds — or, when a failed
// append could not be rolled back, until the log is reopened. Readiness
// probes use it to flip a server not-ready while its event log is
// unwritable.
func (l *Log) Healthy() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// SnapshotErr returns the error from the most recent automatic snapshot
// attempt (nil when the last attempt succeeded). Snapshot failures never
// fail the triggering append: the log simply keeps growing until a later
// snapshot succeeds.
func (l *Log) SnapshotErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapErr
}

func (l *Log) snapshotLocked() {
	if err := WriteSnapshot(l.snapPath, l.retained); err != nil {
		l.snapErr = err
		return
	}
	if err := l.f.Truncate(0); err != nil {
		// The snapshot landed but compaction failed: recovery still works
		// (merge dedupes by seq); retry truncation at the next snapshot.
		l.snapErr = err
		return
	}
	l.size = 0
	l.sinceSnap = 0
	l.snapErr = nil
}

// parseLine decodes one log line in either the checksummed "crc32c json"
// format or the legacy plain-JSON format, and validates the event kind.
func parseLine(raw []byte) (Event, error) {
	body, err := unframe(raw)
	if err != nil {
		return Event{}, err
	}
	var e Event
	if err := json.Unmarshal(body, &e); err != nil {
		return Event{}, err
	}
	switch e.Kind {
	case EventAssign, EventSubmit, EventInactive:
	default:
		return Event{}, fmt.Errorf("unknown kind %q", e.Kind)
	}
	return e, nil
}

// unframe returns the JSON payload of a "crc32c<SP>json" line after
// verifying its checksum; an unframed (legacy plain-JSON) line is returned
// as is.
func unframe(line []byte) ([]byte, error) {
	if len(line) <= 9 || line[8] != ' ' || !isHex8(line[:8]) {
		return line, nil
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("bad checksum field: %w", err)
	}
	body := line[9:]
	if got := checksum(body); got != want {
		return nil, fmt.Errorf("checksum mismatch: record %08x, computed %08x", want, got)
	}
	return body, nil
}

func isHex8(b []byte) bool {
	for _, c := range b {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ReadTolerant parses events from r, stopping at the first damaged record
// (parse failure, checksum mismatch, or sequence discontinuity) instead of
// failing: it returns the valid prefix plus a Tail describing what was
// dropped. The sequence chain may start at any number from 1 up (a
// compacted log starts where its snapshot ended); a sequence number below
// 1, which the writer never produces, is damage. The error is non-nil only
// for I/O failures on r itself.
func ReadTolerant(r io.Reader) ([]Event, *Tail, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var events []Event
	var offset int64
	var want int64 // 0 = accept any first seq
	line := 0
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, nil, rerr
		}
		if len(raw) > 0 {
			line++
			trimmed := bytes.TrimRight(raw, "\r\n")
			if len(trimmed) > 0 {
				e, perr := parseLine(trimmed)
				if perr == nil && rerr == io.EOF && raw[len(raw)-1] != '\n' {
					// A final record without its newline may itself be a
					// prefix of a longer torn record; only a clean line
					// boundary proves the write completed.
					perr = errors.New("final record missing newline (torn write)")
				}
				if perr == nil && e.Seq < 1 {
					perr = fmt.Errorf("sequence %d, want at least 1", e.Seq)
				}
				if perr == nil && want != 0 && e.Seq != want {
					perr = fmt.Errorf("sequence %d, want %d", e.Seq, want)
				}
				if perr != nil {
					tail := &Tail{Line: line, Offset: offset, Reason: perr.Error(), TrailingLines: 1}
					tail.TrailingLines += countLines(br)
					return events, tail, nil
				}
				events = append(events, e)
				want = e.Seq + 1
			}
			offset += int64(len(raw))
		}
		if rerr == io.EOF {
			return events, nil, nil
		}
	}
}

func countLines(br *bufio.Reader) int {
	n := 0
	for {
		raw, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			n++
		}
		if err != nil {
			return n
		}
	}
}

// Read parses all events from r strictly: any damaged record or sequence
// gap is an error, and the sequence must start at 1. Use ReadTolerant (or
// Open, which repairs and reports) for crash recovery.
func Read(r io.Reader) ([]Event, error) {
	events, tail, err := ReadTolerant(r)
	if err != nil {
		return nil, err
	}
	if tail != nil {
		return nil, fmt.Errorf("store: line %d: %s", tail.Line, tail.Reason)
	}
	if len(events) > 0 && events[0].Seq != 1 {
		return nil, fmt.Errorf("store: line 1: sequence %d, want 1", events[0].Seq)
	}
	return events, nil
}

// ReadFile parses all events from the log at path (strict, see Read).
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Replay feeds the events through a fresh strategy, reconstructing its
// state. Assign events re-issue RequestTask — strategies are deterministic,
// so the same event order yields the same assignments the original run
// made — and the replay verifies each assignment matches the log before
// proceeding.
func Replay(events []Event, s core.Strategy) error {
	for _, e := range events {
		switch e.Kind {
		case EventInactive:
			s.WorkerInactive(e.Worker)
		case EventAssign:
			tid, ok := s.RequestTask(e.Worker)
			if !ok {
				return fmt.Errorf("store: replay seq %d: strategy had no task for %s", e.Seq, e.Worker)
			}
			if tid != e.Task {
				return fmt.Errorf("store: replay seq %d: strategy assigned %d, log has %d (non-deterministic strategy or mismatched configuration)",
					e.Seq, tid, e.Task)
			}
		case EventSubmit:
			var ans task.Answer
			switch e.Answer {
			case "YES":
				ans = task.Yes
			case "NO":
				ans = task.No
			default:
				return fmt.Errorf("store: replay seq %d: bad answer %q", e.Seq, e.Answer)
			}
			if err := s.SubmitAnswer(e.Worker, e.Task, ans); err != nil {
				return fmt.Errorf("store: replay seq %d: %w", e.Seq, err)
			}
		default:
			return fmt.Errorf("store: replay seq %d: unknown kind %q", e.Seq, e.Kind)
		}
	}
	return nil
}
