package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/task"
)

// writeFramedLog writes n assign/submit pairs through a real Log and
// returns the file path and the appended events.
func writeFramedLog(t *testing.T, n int) (string, []Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.AppendAssign("w", i); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendSubmit("w", i, task.Yes); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, events
}

func TestRecoverTruncatedFinalLine(t *testing.T) {
	path, events := writeFramedLog(t, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: drop its last 7 bytes (newline included).
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	got, tail, err := ReadTolerant(bytes.NewReader(raw[:len(raw)-7]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events)-1 {
		t.Fatalf("recovered %d events, want %d", len(got), len(events)-1)
	}
	if tail == nil {
		t.Fatal("torn final line must be reported")
	}
	if tail.Line != 6 || tail.TrailingLines != 1 {
		t.Fatalf("tail = %+v", tail)
	}

	// Open repairs the tear: the file is truncated to the valid prefix,
	// the torn bytes are preserved, and appends continue the sequence.
	l, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tail == nil || len(info.Events) != 5 {
		t.Fatalf("open info = %+v", info)
	}
	if err := l.AppendInactive("w"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fixed, err := ReadFile(path)
	if err != nil {
		t.Fatalf("repaired log must read strictly: %v", err)
	}
	if len(fixed) != 6 || fixed[5].Kind != EventInactive || fixed[5].Seq != 6 {
		t.Fatalf("after repair+append: %+v", fixed)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("torn bytes not preserved: %v", err)
	}
}

func TestRecoverCorruptMiddleRecord(t *testing.T) {
	path, _ := writeFramedLog(t, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) != 8 {
		t.Fatalf("expected 8 lines, got %d", len(lines))
	}
	// Flip a payload byte inside line 4 (a worker name character) so the
	// JSON still parses but the CRC catches the damage.
	bad := bytes.Replace(lines[3], []byte(`"worker":"w"`), []byte(`"worker":"x"`), 1)
	if bytes.Equal(bad, lines[3]) {
		t.Fatal("corruption did not apply")
	}
	lines[3] = bad
	corrupt := append(bytes.Join(lines, []byte("\n")), '\n')

	events, tail, err := ReadTolerant(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("prefix length %d, want 3", len(events))
	}
	if tail == nil {
		t.Fatal("corrupt middle record must be reported")
	}
	if tail.Line != 4 {
		t.Fatalf("tail line %d, want 4", tail.Line)
	}
	if tail.TrailingLines != 5 {
		t.Fatalf("trailing lines %d, want 5 (bad record + 4 after)", tail.TrailingLines)
	}
	if !strings.Contains(tail.Reason, "checksum mismatch") {
		t.Fatalf("reason %q should name the checksum", tail.Reason)
	}

	// Strict Read refuses the same input.
	if _, err := Read(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("strict Read must reject corruption")
	}

	// Open recovers the prefix, preserves the dropped suffix, and repairs.
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	l, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	if len(info.Events) != 3 || info.Tail == nil {
		t.Fatalf("open info = %+v", info)
	}
	saved, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(saved, []byte(`"worker":"x"`)) {
		t.Fatal("preserved .corrupt file missing the damaged record")
	}
}

func TestRecoveryFromRepairedPrefixReplays(t *testing.T) {
	// End-to-end: drive a strategy while logging, tear the log, and check
	// the recovered prefix replays cleanly into a fresh strategy.
	ds := task.ProductMatching()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	for i := 0; i < 6; i++ {
		tid, ok := orig.RequestTask("a")
		if !ok {
			break
		}
		_ = l.AppendAssign("a", tid)
		_ = orig.SubmitAnswer("a", tid, task.Yes)
		_ = l.AppendSubmit("a", tid, task.Yes)
	}
	_ = l.Close()
	raw, _ := os.ReadFile(path)
	_ = os.WriteFile(path, raw[:len(raw)-11], 0o644)

	l, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	if info.Tail == nil {
		t.Fatal("tear must be diagnosed")
	}
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	if err := Replay(info.Events, fresh); err != nil {
		t.Fatalf("prefix replay: %v", err)
	}
}

func TestAppendWriteError(t *testing.T) {
	l := NewWriter(failingWriter{})
	err := l.AppendAssign("w", 1)
	if err == nil {
		t.Fatal("expected write error")
	}
	var we *WriteError
	if !errors.As(err, &we) {
		t.Fatalf("want *WriteError, got %T: %v", err, err)
	}
	if we.Op != "append" || !errors.Is(err, errDiskGone) {
		t.Fatalf("WriteError = %+v", we)
	}
}

type failingWriter struct{}

var errDiskGone = errors.New("disk gone")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskGone }

func TestLegacyPlainJSONLinesStillRead(t *testing.T) {
	// Logs written before CRC framing (plain JSON lines) must stay
	// replayable, including mixed with framed lines.
	var buf bytes.Buffer
	buf.WriteString(`{"seq":1,"kind":"assign","worker":"w","task":2}` + "\n")
	lw := NewWriter(&buf)
	lw.next = 2
	if err := lw.AppendSubmit("w", 2, task.No); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Task != 2 || events[1].Answer != "NO" {
		t.Fatalf("events = %+v", events)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	snapPath := logPath + ".snap"
	opts := []Option{WithSnapshotEvery(4), WithFsync(2)}
	l, info, err := Open(logPath, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Events) != 0 {
		t.Fatalf("fresh log has %d events", len(info.Events))
	}
	for i := 0; i < 5; i++ {
		if err := l.AppendAssign("w", i); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendSubmit("w", i, task.Yes); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SnapshotErr(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// 10 appends with SnapshotEvery=4: two compactions; the live log holds
	// only the 2 post-snapshot events.
	tailEvents, _, err := ReadTolerant(mustOpen(t, logPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(tailEvents) != 2 || tailEvents[0].Seq != 9 {
		t.Fatalf("compacted log tail = %+v", tailEvents)
	}
	snapEvents, err := ReadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapEvents) != 8 || snapEvents[7].Seq != 8 {
		t.Fatalf("snapshot holds %d events, last seq %d", len(snapEvents), snapEvents[len(snapEvents)-1].Seq)
	}

	// Reopening merges snapshot + tail and continues the sequence.
	l2, info2, err := Open(logPath, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(info2.Events) != 10 || info2.FromSnapshot != 8 {
		t.Fatalf("reopen info: %d events, %d from snapshot", len(info2.Events), info2.FromSnapshot)
	}
	for i, e := range info2.Events {
		if e.Seq != int64(i+1) {
			t.Fatalf("merged seq %d at index %d", e.Seq, i)
		}
	}
	if err := l2.AppendInactive("w"); err != nil {
		t.Fatal(err)
	}
	_ = l2.Close()
	l3, info3, err := Open(logPath, opts...)
	if err != nil {
		t.Fatal(err)
	}
	_ = l3.Close()
	if len(info3.Events) != 11 || info3.Events[10].Seq != 11 {
		t.Fatalf("after reopen+append: %d events", len(info3.Events))
	}

	// A compacted log opened without its snapshot must refuse, not
	// silently lose the prefix.
	if _, _, err := Open(logPath); err == nil {
		t.Fatal("compacted log without snapshot must refuse to open")
	}
}

func TestSnapshotOverlapAfterCrash(t *testing.T) {
	// Crash between snapshot write and log truncation: the log still
	// holds events the snapshot also has; the merge must dedupe by seq.
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	snapPath := logPath + ".snap"
	l, _, err := Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var all []Event
	for i := 0; i < 3; i++ {
		_ = l.AppendAssign("w", i)
		_ = l.AppendSubmit("w", i, task.No)
	}
	_ = l.Close()
	all, err = ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the first 4 events but "crash" before truncating the log.
	if err := WriteSnapshot(snapPath, all[:4]); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(logPath, WithSnapshotEvery(100))
	if err != nil {
		t.Fatal(err)
	}
	_ = l2.Close()
	if len(info.Events) != 6 || info.FromSnapshot != 4 {
		t.Fatalf("overlap merge: %d events, %d from snapshot", len(info.Events), info.FromSnapshot)
	}
	for i, e := range info.Events {
		if e.Seq != int64(i+1) {
			t.Fatalf("merged seq %d at index %d", e.Seq, i)
		}
	}
}

func TestReadSnapshotRejectsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := WriteSnapshot(path, []Event{{Seq: 1, Kind: EventInactive, Worker: "w"}}); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	flipped := bytes.Replace(raw, []byte(`"worker":"w"`), []byte(`"worker":"v"`), 1)
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("damaged snapshot: %v", err)
	}
	if _, err := ReadSnapshot(filepath.Join(t.TempDir(), "none.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v", err)
	}

	// A checksummed snapshot that does not start at seq 1 lost its prefix:
	// neither ReadSnapshot nor Open may take it as the full history.
	logPath := filepath.Join(t.TempDir(), "events.log")
	if err := WriteSnapshot(logPath+".snap", []Event{
		{Seq: 5, Kind: EventInactive, Worker: "w"},
		{Seq: 6, Kind: EventInactive, Worker: "w"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(logPath + ".snap"); err == nil {
		t.Fatal("snapshot starting at seq 5 must be rejected")
	}
	if l, info, err := Open(logPath, WithSnapshotEvery(4)); err == nil {
		l.Close()
		t.Fatalf("Open accepted a snapshot starting at seq 5 as %d events", len(info.Events))
	}
}

// framed returns e as one framed log line.
func framed(t testing.TB, e Event) []byte {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return frameLine(b)
}

// tornOnceWriter stores the first half of the first record it is given
// and then fails, as a disk that fills up mid-write does; later writes
// pass through to f.
type tornOnceWriter struct {
	f    *os.File
	torn bool
}

func (w *tornOnceWriter) Write(b []byte) (int, error) {
	if w.torn {
		return w.f.Write(b)
	}
	w.torn = true
	n, _ := w.f.Write(b[:len(b)/2])
	return n, errDiskGone
}

func TestFailedWriteIsRolledBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAssign("a", 1); err != nil {
		t.Fatal(err)
	}
	l.w = &tornOnceWriter{f: l.f}
	if err := l.AppendSubmit("a", 1, task.Yes); !errors.Is(err, errDiskGone) {
		t.Fatalf("torn write: got %v, want the write error", err)
	}
	if got := l.LastSeq(); got != 1 {
		t.Fatalf("LastSeq after a failed append = %d, want 1", got)
	}
	// Two acknowledged appends after the failure.
	if err := l.AppendSubmit("a", 1, task.Yes); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInactive("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("Healthy after a rolled-back failure and a success = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Tail != nil || len(info.Events) != 3 {
		t.Fatalf("reopen recovered %d events with tail %v, want all 3 acknowledged events and no damage", len(info.Events), info.Tail)
	}
	if info.Events[1].Kind != EventSubmit || info.Events[2].Seq != 3 {
		t.Fatalf("recovered %+v", info.Events)
	}
}

// devNullSyncFails opens os.DevNull, skipping the test where fsync on it
// succeeds (it fails with EINVAL on Linux).
func devNullSyncFails(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("open %s: %v", os.DevNull, err)
	}
	if f.Sync() == nil {
		f.Close()
		t.Skipf("fsync on %s succeeds on this platform", os.DevNull)
	}
	return f
}

// TestFailedFsyncIsNotLoggedTwice fails the fsync of a submit the way a
// dying disk does. The client sees a failure and retries (DESIGN §5), so
// the log must neither consume the failed append's sequence number nor
// accept the retry on top of a record it could not roll back.
func TestFailedFsyncIsNotLoggedTwice(t *testing.T) {
	devNull := devNullSyncFails(t)
	ds := task.ProductMatching()
	path := filepath.Join(t.TempDir(), "events.log")
	l, _, err := Open(path, WithFsync(1))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	tid, ok := st.RequestTask("a")
	if !ok {
		t.Fatal("no task")
	}
	if err := l.AppendAssign("a", tid); err != nil {
		t.Fatal(err)
	}
	file := l.f
	l.f = devNull
	var we *WriteError
	if err := l.AppendSubmit("a", tid, task.Yes); !errors.As(err, &we) || we.Op != "sync" {
		t.Fatalf("submit with failing fsync: got %v, want a sync WriteError", err)
	}
	if got := l.LastSeq(); got != 1 {
		t.Fatalf("LastSeq after a failed fsync = %d, want 1", got)
	}
	// The record cannot be truncated away from os.DevNull, so the log must
	// refuse the retry and stay unhealthy, even once fsync works again.
	l.f = file
	if err := l.AppendSubmit("a", tid, task.Yes); err == nil {
		t.Fatal("retry accepted on top of a failed append that was not rolled back")
	}
	if err := l.Healthy(); err == nil {
		t.Fatal("Healthy must stay non-nil until the log is reopened")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	devNull.Close()
	l2, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Healthy(); err != nil {
		t.Fatalf("reopened log unhealthy: %v", err)
	}
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	if err := Replay(info.Events, fresh); err != nil {
		t.Fatalf("replay after a failed fsync: %v", err)
	}
}

func TestCloseReportsFinalFsync(t *testing.T) {
	devNullSyncFails(t).Close()
	l, _, err := Open(os.DevNull, WithFsync(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInactive("w"); err != nil {
		t.Fatal(err)
	}
	var we *WriteError
	if err := l.Close(); !errors.As(err, &we) || we.Op != "sync" {
		t.Fatalf("Close with an unsynced append and a failing fsync = %v, want a sync WriteError", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
