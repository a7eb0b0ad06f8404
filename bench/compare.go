package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is BENCHMARK.json: the metrics, bounds and workloads the
// benchmark defines.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readRecords reads an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// verdict judges B against A for one metric: "worse" or "improved" when
// the medians differ by more than the bound, "unchanged" otherwise, and
// "unresolved" when either side's quartile spread exceeds the bound —
// unless every run of B reads better than every run of A.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	delta := 0.0
	if ma != mb {
		delta = (mb - ma) / math.Abs(ma)
	}
	sign := 1.0 // positive delta = worse
	if better == "higher" {
		sign = -1
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, sign) {
			return "improved", delta
		}
		return "unresolved", delta
	}
	switch {
	case sign*delta > bound:
		return "worse", delta
	case sign*delta < -bound:
		return "improved", delta
	}
	return "unchanged", delta
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// allBetter reports whether every value of b is better than every value
// of a (sign -1: higher is better).
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// allEqual reports whether every value of xs is the same.
func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// runCompare prints, per workload and metric, both result sets' medians
// and quartiles, the change of the median, and the verdict against the
// bound BENCHMARK.json fixes. A repeating metric whose runs differ within
// either set is "not repeated": the reference pass's output was not a
// function of the code alone. Per-layer metrics have no bound and get no
// verdict. There is no combined score.
func runCompare(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := func(recs []record) (map[key][]float64, map[string][2]int) {
		vals := map[key][]float64{}
		runs := map[string][2]int{} // workload -> runs, incorrect runs
		for _, r := range recs {
			c := runs[r.Workload]
			c[0]++
			if !r.Result.Correct {
				c[1]++
			}
			runs[r.Workload] = c
			for m, v := range r.Result.Metrics {
				k := key{r.Workload, m}
				vals[k] = append(vals[k], v.Value)
			}
		}
		return vals, runs
	}
	va, ra := values(a)
	vb, rb := values(b)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tdelta\tbound\tverdict")
	for _, wl := range spec.Workloads {
		fmt.Fprintf(tw, "%s\t(runs: A %d, %d incorrect; B %d, %d incorrect)\t\t\t\t\t\n",
			wl.Name, ra[wl.Name][0], ra[wl.Name][1], rb[wl.Name][0], rb[wl.Name][1])
		row := func(metric, better string, bound float64, bounded bool) {
			xa, xb := va[key{wl.Name, metric}], vb[key{wl.Name, metric}]
			if len(xa) == 0 && len(xb) == 0 {
				return
			}
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t\tmissing\n", wl.Name, metric, summary(xa), summary(xb))
				return
			}
			v, delta := verdict(xa, xb, better, bound)
			if repeating[metric] && !(allEqual(xa) && allEqual(xb)) {
				v = "not repeated"
			}
			b := fmt.Sprintf("%g%%", 100*bound)
			if !bounded {
				v, b = "-", "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", wl.Name, metric, summary(xa), summary(xb), 100*delta, b, v)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Better, m.Bound, true)
		}
		for _, m := range spec.PerLayer {
			row(m.Name, m.Better, 0, false)
		}
	}
	return tw.Flush()
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(xs))
}
