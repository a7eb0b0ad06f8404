package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The conformance suite: the contracts the platform relies on from a Log —
// contiguous 1-based sequences, recovery of exactly the acknowledged
// history across a reopen, torn-tail repair, snapshot round-trips, LastSeq
// persistence and a healthy fresh log.

// logConfigs are the configurations the append, snapshot and LastSeq
// contracts must hold under: the default, where the OS decides when to
// flush, and an fsync after every append.
var logConfigs = []struct {
	name string
	opts []Option
}{
	{"log", nil},
	{"fsync_every_append", []Option{WithFsync(1)}},
}

// forEachLogConfig runs f as one subtest per entry of logConfigs.
func forEachLogConfig(t *testing.T, f func(t *testing.T, opts []Option)) {
	for _, c := range logConfigs {
		t.Run(c.name, func(t *testing.T) { f(t, c.opts) })
	}
}

// openLog opens (or reopens) the log inside dir with extra options.
func openLog(t *testing.T, dir string, opts ...Option) (*Log, *RecoverInfo) {
	t.Helper()
	l, info, err := Open(filepath.Join(dir, "events.log"), opts...)
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	return l, info
}

// driveWorkload appends a deterministic mixed workload of n events and
// returns them as the log stamped them.
func driveWorkload(t *testing.T, l *Log, n int) []Event {
	t.Helper()
	var acked []Event
	for i := 0; i < n; i++ {
		e := Event{Kind: EventAssign, Worker: fmt.Sprintf("w%d", i%5), Task: i % 7}
		switch i % 3 {
		case 1:
			e.Kind, e.Answer = EventSubmit, "YES"
			if i%2 == 0 {
				e.Answer = "NO"
			}
		case 2:
			e = Event{Kind: EventInactive, Worker: e.Worker}
		}
		got, err := l.Append(e)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acked = append(acked, got)
	}
	return acked
}

// TestConformanceAppendReplayParity drives a workload and demands the
// acknowledged history back bit-identically — from a clean reopen and
// from a strict read of the file.
func TestConformanceAppendReplayParity(t *testing.T) {
	const n = 50
	forEachLogConfig(t, func(t *testing.T, opts []Option) {
		dir := t.TempDir()
		l, info := openLog(t, dir, opts...)
		if info == nil || len(info.Events) != 0 {
			t.Fatalf("fresh open recovered %v", info)
		}
		acked := driveWorkload(t, l, n)
		for i, e := range acked {
			if e.Seq != int64(i+1) {
				t.Fatalf("event %d has seq %d, want contiguous from 1", i, e.Seq)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close must be idempotent, got %v", err)
		}
		l2, info2 := openLog(t, dir, opts...)
		defer l2.Close()
		if !reflect.DeepEqual(info2.Events, acked) {
			t.Fatal("recovered history differs from the acknowledged history")
		}
		read, err := ReadFile(filepath.Join(dir, "events.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(read, acked) {
			t.Fatal("strict read differs from the acknowledged history")
		}
	})
}

// TestConformanceTornTailRecovery damages the log the way a crash or a
// foreign writer can: the damaged suffix is truncated away with the Tail
// at its first record, the valid prefix survives, appends continue with
// the right sequence numbers, and the next reopen is clean.
func TestConformanceTornTailRecovery(t *testing.T) {
	const n = 20
	cases := []struct {
		name string
		// damage leaves the log at path damaged and returns the length of
		// its valid prefix.
		damage func(t *testing.T, path string) int
	}{
		{"torn_append", func(t *testing.T, path string) int {
			l, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			driveWorkload(t, l, n)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Crash mid-append: a partial frame lands at the tail.
			appendBytes(t, path, `1234abcd {"seq":999,"kind":"assi`)
			return n
		}},
		{"seq_below_1", func(t *testing.T, path string) int {
			// CRC-valid records whose sequence numbers the writer never
			// produces.
			appendBytes(t, path, string(framed(t, Event{Seq: -3, Kind: EventInactive, Worker: "w"}))+
				string(framed(t, Event{Seq: -2, Kind: EventInactive, Worker: "w"})))
			return 0
		}},
		{"legacy_seq_below_1", func(t *testing.T, path string) int {
			appendBytes(t, path, `{"seq":0,"kind":"inactive","worker":"w"}`+"\n"+
				`{"seq":1,"kind":"inactive","worker":"w"}`+"\n")
			return 0
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			kept := c.damage(t, filepath.Join(dir, "events.log"))

			l, info := openLog(t, dir)
			if info.Tail == nil {
				t.Fatal("reopen after damage reported no Tail")
			}
			if info.Tail.Line != kept+1 {
				t.Fatalf("Tail at line %d, want %d (the first damaged record)", info.Tail.Line, kept+1)
			}
			if len(info.Events) != kept {
				t.Fatalf("recovered %d events, want the %d-event valid prefix", len(info.Events), kept)
			}
			// Appends continue with contiguous sequence numbers.
			if err := l.AppendAssign("post-crash", 1); err != nil {
				t.Fatal(err)
			}
			if got := l.LastSeq(); got != int64(kept+1) {
				t.Fatalf("LastSeq after repair+append = %d, want %d", got, kept+1)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// The repair is durable: the next open is clean and keeps the
			// acknowledged append.
			l2, info2 := openLog(t, dir)
			defer l2.Close()
			if info2.Tail != nil {
				t.Fatalf("second reopen still reports a damaged tail: %v", info2.Tail)
			}
			if len(info2.Events) != kept+1 || info2.Events[kept].Worker != "post-crash" {
				t.Fatalf("second reopen recovered %+v, want %d events ending in the post-crash append", info2.Events, kept+1)
			}
		})
	}
}

// appendBytes appends s to the file at path, creating it if needed.
func appendBytes(t *testing.T, path, s string) {
	t.Helper()
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceSnapshotRoundTrip enables snapshotting, crosses the
// compaction threshold, and demands the full history back after reopen.
func TestConformanceSnapshotRoundTrip(t *testing.T) {
	const n = 45 // crosses several 16-append snapshot intervals
	forEachLogConfig(t, func(t *testing.T, opts []Option) {
		opts = append([]Option{WithSnapshotEvery(16)}, opts...)
		dir := t.TempDir()
		l, _ := openLog(t, dir, opts...)
		acked := driveWorkload(t, l, n)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, info := openLog(t, dir, opts...)
		defer l2.Close()
		if info.FromSnapshot == 0 {
			t.Fatal("no events recovered from the snapshot despite crossing the interval")
		}
		if !reflect.DeepEqual(info.Events, acked) {
			t.Fatalf("snapshot round-trip lost history: recovered %d events, want %d",
				len(info.Events), len(acked))
		}
		if got := l2.LastSeq(); got != n {
			t.Fatalf("LastSeq after snapshot round-trip = %d, want %d", got, n)
		}
	})
}

// TestConformanceLastSeqAndHealth pins LastSeq across a reopen and the
// Healthy contract on a fresh log.
func TestConformanceLastSeqAndHealth(t *testing.T) {
	forEachLogConfig(t, func(t *testing.T, opts []Option) {
		dir := t.TempDir()
		l, _ := openLog(t, dir, opts...)
		if got := l.LastSeq(); got != 0 {
			t.Fatalf("LastSeq on empty log = %d, want 0", got)
		}
		if err := l.Healthy(); err != nil {
			t.Fatalf("fresh log unhealthy: %v", err)
		}
		driveWorkload(t, l, 10)
		if got := l.LastSeq(); got != 10 {
			t.Fatalf("LastSeq = %d, want 10", got)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, _ := openLog(t, dir, opts...)
		defer l2.Close()
		if got := l2.LastSeq(); got != 10 {
			t.Fatalf("LastSeq after reopen = %d, want 10", got)
		}
	})
}
