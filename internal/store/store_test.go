package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/task"
)

func TestAppendAndRead(t *testing.T) {
	var buf bytes.Buffer
	l := NewWriter(&buf)
	if err := l.AppendAssign("w1", 3); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSubmit("w1", 3, task.Yes); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInactive("w2"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSubmit("w1", 3, task.None); err == nil {
		t.Fatal("None answer should error")
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Kind != EventAssign || events[0].Seq != 1 || events[0].Task != 3 {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Kind != EventSubmit || events[1].Answer != "YES" {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if events[2].Kind != EventInactive || events[2].Worker != "w2" {
		t.Fatalf("event 2 = %+v", events[2])
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad json", "{"},
		{"bad seq", `{"seq":5,"kind":"submit","worker":"w","task":0,"answer":"YES"}`},
		{"bad kind", `{"seq":1,"kind":"bogus","worker":"w"}`},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
	// Blank lines are tolerated.
	in := "\n" + `{"seq":1,"kind":"inactive","worker":"w"}` + "\n\n"
	events, err := Read(strings.NewReader(in))
	if err != nil || len(events) != 1 {
		t.Fatalf("blank-line handling: %v %d", err, len(events))
	}
}

func TestOpenAppendsAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.AppendAssign("a", 1)
	_ = l.AppendSubmit("a", 1, task.No)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: sequence numbers continue.
	l2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l2.AppendInactive("a")
	_ = l2.Close()
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[2].Seq != 3 {
		t.Fatalf("events = %+v", events)
	}
}

// drive runs a strategy while logging every event, returning the log buffer.
func drive(t *testing.T, s core.Strategy, ds *task.Dataset, seed int64, steps int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	l := NewWriter(&buf)
	rng := rand.New(rand.NewSource(seed))
	workers := []string{"a", "b", "c", "d"}
	for i := 0; i < steps && !s.Done(); i++ {
		w := workers[rng.Intn(len(workers))]
		if rng.Float64() < 0.05 {
			s.WorkerInactive(w)
			if err := l.AppendInactive(w); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tid, ok := s.RequestTask(w)
		if !ok {
			continue
		}
		if err := l.AppendAssign(w, tid); err != nil {
			t.Fatal(err)
		}
		ans := ds.Tasks[tid].Truth
		if rng.Float64() < 0.3 {
			ans = ans.Flip()
		}
		if err := s.SubmitAnswer(w, tid, ans); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendSubmit(w, tid, ans); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func TestReplayReconstructsRandomMV(t *testing.T) {
	ds := task.ProductMatching()
	orig, _ := baseline.NewRandomMV(ds, 3, []int{0, 1}, 7)
	buf := drive(t, orig, ds, 11, 500)

	events, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := baseline.NewRandomMV(ds, 3, []int{0, 1}, 7)
	if err := Replay(events, fresh); err != nil {
		t.Fatal(err)
	}
	origRes, freshRes := orig.Results(), fresh.Results()
	for i := 0; i < ds.Len(); i++ {
		if origRes[i] != freshRes[i] {
			t.Fatalf("task %d: original %v vs recovered %v", i, origRes[i], freshRes[i])
		}
	}
	if orig.Done() != fresh.Done() {
		t.Fatal("completion state differs after replay")
	}
}

func TestReplayReconstructsICrowd(t *testing.T) {
	ds := task.ProductMatching()
	bc := core.DefaultBasisConfig()
	bc.Threshold = 0.5
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Q = 3
	orig, err := core.New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := drive(t, orig, ds, 13, 800)

	events, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(events, fresh); err != nil {
		t.Fatal(err)
	}
	// Full state equivalence: results, completion, and accuracy estimates.
	origRes, freshRes := orig.Results(), fresh.Results()
	for i := 0; i < ds.Len(); i++ {
		if origRes[i] != freshRes[i] {
			t.Fatalf("task %d: original %v vs recovered %v", i, origRes[i], freshRes[i])
		}
	}
	for _, w := range orig.Estimator().Workers() {
		for tid := 0; tid < ds.Len(); tid++ {
			a, b := orig.Estimator().Accuracy(w, tid), fresh.Estimator().Accuracy(w, tid)
			if a != b {
				t.Fatalf("estimate for %s on %d differs: %v vs %v", w, tid, a, b)
			}
		}
	}
}

func TestReplayDetectsMismatchedConfig(t *testing.T) {
	ds := task.ProductMatching()
	orig, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	buf := drive(t, orig, ds, 11, 200)
	events, _ := Read(bytes.NewReader(buf.Bytes()))
	// Different seed => different random assignments => mismatch detected.
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 99)
	if err := Replay(events, fresh); err == nil {
		t.Fatal("mismatched configuration should be detected")
	}
}

func TestReplayBadEvents(t *testing.T) {
	ds := task.ProductMatching()
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	bad := []Event{{Seq: 1, Kind: EventSubmit, Worker: "w", Task: 0, Answer: "MAYBE"}}
	if err := Replay(bad, fresh); err == nil {
		t.Fatal("bad answer should error")
	}
	bad = []Event{{Seq: 1, Kind: "bogus", Worker: "w"}}
	if err := Replay(bad, fresh); err == nil {
		t.Fatal("bad kind should error")
	}
	// Submit without assignment conflicts inside the strategy.
	bad = []Event{{Seq: 1, Kind: EventSubmit, Worker: "w", Task: 0, Answer: "YES"}}
	if err := Replay(bad, fresh); err == nil {
		t.Fatal("submit without pending should error")
	}
}

// TestReplayFromLogFile rebuilds a strategy the way an offline tool does:
// a strict read of a closed log, replayed through a fresh strategy.
func TestReplayFromLogFile(t *testing.T) {
	ds := task.ProductMatching()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	tid, ok := orig.RequestTask("a")
	if !ok {
		t.Fatal("no task")
	}
	_ = l.AppendAssign("a", tid)
	_ = orig.SubmitAnswer("a", tid, task.Yes)
	_ = l.AppendSubmit("a", tid, task.Yes)
	_ = l.Close()

	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	if err := Replay(events, fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Job().Votes(tid)) != 1 {
		t.Fatal("recovered state missing the vote")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "none.jsonl")); err == nil {
		t.Fatal("missing file should error")
	}
}

// failNWriter fails the first n writes, then succeeds.
type failNWriter struct {
	n int
}

func (w *failNWriter) Write(b []byte) (int, error) {
	if w.n > 0 {
		w.n--
		return 0, errWriteFailed
	}
	return len(b), nil
}

var errWriteFailed = &WriteError{Op: "append", Err: nil}

func TestHealthyTracksStickyWriteError(t *testing.T) {
	l := NewWriter(&failNWriter{n: 1})
	if err := l.Healthy(); err != nil {
		t.Fatalf("fresh log should be healthy, got %v", err)
	}
	if err := l.AppendAssign("w1", 1); err == nil {
		t.Fatal("append through failing writer should error")
	}
	if err := l.Healthy(); err == nil {
		t.Fatal("Healthy should report the failed append until one succeeds")
	}
	// Writer healed: the next successful append clears the sticky error.
	if err := l.AppendAssign("w1", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("Healthy after successful append = %v, want nil", err)
	}
}
