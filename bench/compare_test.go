package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"unchanged", []float64{10.2, 10.1, 10.3, 10.2, 10.25}, "lower", "unchanged"},
		{"worse", []float64{12, 12.1, 11.9, 12, 12.05}, "lower", "worse"},
		{"improved", []float64{8, 8.1, 7.9, 8, 8.05}, "lower", "improved"},
		{"worse when higher is better", []float64{8, 8.1, 7.9, 8, 8.05}, "higher", "worse"},
		{"unresolved", []float64{6, 14, 10, 8, 12}, "lower", "unresolved"},
		{"wide but every run better", []float64{1, 5, 3, 2, 4}, "lower", "improved"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got, _ := verdict(base, c.b, c.better, 0.1); got != c.want {
				t.Fatalf("verdict = %s, want %s", got, c.want)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q %q, bench %q %q", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, bench %+v", i, got, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, bench %+v", i, got, m)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rec := func(v string) string {
		return `{"workload":"adaptive","seed":1,"trace":0,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{"assign_p50_ms":{"value":` + v + `,"unit":"ms"}}}}`
	}
	a := write("a.jsonl", rec("1.0"), rec("1.01"), rec("0.99"))
	b := write("b.jsonl", rec("1.5"), rec("1.51"), rec("1.49"))
	var out strings.Builder
	if err := runCompare(&out, filepath.Join("..", "BENCHMARK.json"), a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "assign_p50_ms") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("compare output lacks the worse assign_p50_ms row:\n%s", out.String())
	}
}

// TestCompareRequiresRepeats: the reference pass's metrics must read the
// same in every run of a set, even when the medians are within the bound.
func TestCompareRequiresRepeats(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...string) string {
		var lines []string
		for _, v := range values {
			lines = append(lines, `{"workload":"adaptive","seed":1,"trace":0,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{"accuracy":{"value":`+v+`,"unit":"fraction"}}}}`)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		name string
		a, b []string
		want string
	}{
		{"same", []string{"0.8", "0.8"}, []string{"0.8", "0.8"}, "unchanged"},
		{"one run differs", []string{"0.8", "0.8"}, []string{"0.8", "0.801"}, "not repeated"},
		{"repeats but worse", []string{"0.8", "0.8"}, []string{"0.78", "0.78"}, "worse"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := runCompare(&out, filepath.Join("..", "BENCHMARK.json"), write("a.jsonl", c.a...), write("b.jsonl", c.b...)); err != nil {
				t.Fatal(err)
			}
			var row string
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.Contains(l, "accuracy") {
					row = l
				}
			}
			if !strings.HasSuffix(strings.TrimSpace(row), c.want) {
				t.Fatalf("accuracy row %q, want verdict %q", row, c.want)
			}
		})
	}
}
