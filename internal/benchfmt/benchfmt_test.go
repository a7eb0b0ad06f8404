package benchfmt

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTripAndFind(t *testing.T) {
	rep := Report{
		GeneratedBy: "test",
		GeneratedAt: "2026-08-05T00:00:00Z",
		GitCommit:   "deadbeef",
		Benchmarks: []Record{
			{Name: "BenchmarkA", Iterations: 100, NsPerOp: 1234, Metrics: map[string]float64{"x": 1}},
			{Name: "BenchmarkB", Iterations: 200, NsPerOp: 56},
		},
	}
	buf, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if buf[len(buf)-1] != '\n' {
		t.Error("Marshal should end with a newline")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GeneratedAt != rep.GeneratedAt || got.GitCommit != rep.GitCommit {
		t.Errorf("stamp lost in round trip: %+v", got)
	}
	b := got.Find("BenchmarkB")
	if b == nil || b.NsPerOp != 56 {
		t.Errorf("Find(BenchmarkB) = %+v", b)
	}
	if got.Find("BenchmarkC") != nil {
		t.Error("Find of a missing benchmark should return nil")
	}
}

func TestReadFileErrors(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("malformed JSON should error")
	}
}

func TestSpeedupStatusFor(t *testing.T) {
	for _, tc := range []struct {
		cpus, workers int
		want          string
	}{
		{1, 8, "skipped (1 of 8 cores)"},
		{2, 8, "skipped (2 of 8 cores)"},
		{7, 8, "skipped (7 of 8 cores)"},
		{8, 8, SpeedupEnforced},
		{64, 8, SpeedupEnforced},
	} {
		if got := SpeedupStatusFor(tc.cpus, tc.workers); got != tc.want {
			t.Errorf("SpeedupStatusFor(%d, %d) = %q, want %q", tc.cpus, tc.workers, got, tc.want)
		}
	}
}
