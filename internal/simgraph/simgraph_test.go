package simgraph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"icrowd/internal/task"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustFromEdges(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{
		{0, 1, 0.5}, {1, 2, 0.8}, {2, 0, 0.3},
	})
	if g.N() != 4 || g.NumEdges() != 3 {
		t.Fatalf("N=%d edges=%d", g.N(), g.NumEdges())
	}
	if got := g.Sim(0, 1); got != 0.5 {
		t.Fatalf("Sim(0,1)=%v", got)
	}
	if got := g.Sim(1, 0); got != 0.5 {
		t.Fatal("graph should be symmetric")
	}
	if got := g.Sim(0, 3); got != 0 {
		t.Fatal("missing edge should have Sim 0")
	}
	if got := g.Degree(0); !almost(got, 0.8, 1e-12) {
		t.Fatalf("Degree(0)=%v, want 0.8", got)
	}
	if g.NumNeighbors(3) != 0 {
		t.Fatal("node 3 should be isolated")
	}
}

func TestFromEdgesErrors(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2, 0.5}}); err == nil {
		t.Fatal("out-of-range edge should error")
	}
	if _, err := FromEdges(2, []Edge{{1, 1, 0.5}}); err == nil {
		t.Fatal("self-loop should error")
	}
	// Non-positive similarities dropped silently.
	g := mustFromEdges(t, 2, []Edge{{0, 1, 0}})
	if g.NumEdges() != 0 {
		t.Fatal("zero-sim edge should be dropped")
	}
}

func TestFromEdgesDuplicatesKeepMax(t *testing.T) {
	g := mustFromEdges(t, 2, []Edge{{0, 1, 0.4}, {1, 0, 0.9}, {0, 1, 0.2}})
	if g.NumEdges() != 1 {
		t.Fatalf("duplicates should collapse: %d edges", g.NumEdges())
	}
	if got := g.Sim(0, 1); got != 0.9 {
		t.Fatalf("Sim(0,1)=%v, want max 0.9", got)
	}
}

func TestNormalization(t *testing.T) {
	// Path graph 0-1-2 with similarities 1.
	g := mustFromEdges(t, 3, []Edge{{0, 1, 1}, {1, 2, 1}})
	// D = diag(1, 2, 1); S'_{01} = 1/sqrt(1*2).
	if got := g.NormSim(0, 1); !almost(got, 1/math.Sqrt(2), 1e-12) {
		t.Fatalf("NormSim(0,1)=%v", got)
	}
	if got := g.NormSim(1, 2); !almost(got, 1/math.Sqrt(2), 1e-12) {
		t.Fatalf("NormSim(1,2)=%v", got)
	}
	// Row sums: row 0 has one entry 1/sqrt(2); row 1 has two.
	if s := g.NormRowSum(0); !almost(s, 1/math.Sqrt(2), 1e-12) {
		t.Fatalf("NormRowSum(0)=%v", s)
	}
	if s := g.NormRowSum(1); !almost(s, math.Sqrt(2), 1e-12) {
		t.Fatalf("NormRowSum(1)=%v", s)
	}
}

func TestNormRowSumBoundedProperty(t *testing.T) {
	// Property: with uniform similarities, sum_j S'_ij <= 1 for every i.
	// (Symmetric normalization of an unweighted graph has row sums
	// sum_j 1/sqrt(d_i d_j) <= 1 only when neighbor degrees >= d_i is not
	// guaranteed, so we test the weaker spectral-safety bound via uniform
	// complete sub-blocks.) Random weighted graphs: verify row sums finite
	// and non-negative, and symmetry of norm entries.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, Edge{i, j, 0.1 + 0.9*rng.Float64()})
				}
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			s := g.NormRowSum(i)
			if math.IsNaN(s) || s < 0 {
				return false
			}
			ok := true
			g.Neighbors(i, func(j int, sim, norm float64) {
				if !almost(norm, g.NormSim(j, i), 1e-12) {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWithThreshold(t *testing.T) {
	ds := task.ProductMatching()
	g, err := Build(ds.Len(), JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: sim(t2, t7) = 4/7 >= 0.5, so the edge exists.
	if got := g.Sim(1, 6); !almost(got, 4.0/7, 1e-12) {
		t.Fatalf("Sim(t2,t7)=%v, want 4/7", got)
	}
	// All surviving edges meet the threshold.
	for i := 0; i < g.N(); i++ {
		g.Neighbors(i, func(j int, sim, _ float64) {
			if sim < 0.5 {
				t.Fatalf("edge (%d,%d) below threshold: %v", i, j, sim)
			}
		})
	}
	if _, err := Build(3, JaccardMetric(ds), 0, 0); err == nil {
		t.Fatal("zero threshold should error")
	}
}

func TestBuildGraphClustersByDomain(t *testing.T) {
	// With a domain-separating metric and a sensible threshold, almost all
	// edges should be intra-domain (this is what Figure 3 depicts).
	ds := task.GenerateItemCompare(3)
	g, err := Build(ds.Len(), JaccardMetric(ds), 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var intra, total int
	for i := 0; i < g.N(); i++ {
		g.Neighbors(i, func(j int, _, _ float64) {
			if i < j {
				total++
				if ds.Tasks[i].Domain == ds.Tasks[j].Domain {
					intra++
				}
			}
		})
	}
	if total == 0 {
		t.Fatal("no edges built")
	}
	if frac := float64(intra) / float64(total); frac < 0.9 {
		t.Fatalf("only %.2f of edges intra-domain", frac)
	}
	// Every task should have at least one neighbor at this threshold.
	isolated := 0
	for i := 0; i < g.N(); i++ {
		if g.NumNeighbors(i) == 0 {
			isolated++
		}
	}
	if isolated > ds.Len()/10 {
		t.Fatalf("%d isolated tasks", isolated)
	}
}

func TestNeighborCap(t *testing.T) {
	ds := task.GenerateItemCompare(3)
	const cap = 5
	g, err := Build(ds.Len(), JaccardMetric(ds), 0.2, cap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		if got := g.NumNeighbors(i); got > cap {
			t.Fatalf("task %d has %d neighbors, cap %d", i, got, cap)
		}
	}
	full, _ := Build(ds.Len(), JaccardMetric(ds), 0.2, 0)
	if g.NumEdges() >= full.NumEdges() {
		t.Fatal("cap should remove edges")
	}
}

func TestBuildRandom(t *testing.T) {
	g, err := BuildRandom(500, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 {
		t.Fatalf("N=%d", g.N())
	}
	if g.NumEdges() == 0 {
		t.Fatal("random graph has no edges")
	}
	// Expected edges ~ n * maxNeighbors/2 (minus collisions).
	if g.NumEdges() > 500*5 {
		t.Fatalf("too many edges: %d", g.NumEdges())
	}
	// Determinism.
	g2, _ := BuildRandom(500, 10, 1)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("BuildRandom not deterministic")
	}
}

func TestComponents(t *testing.T) {
	g := mustFromEdges(t, 6, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Fatalf("component sizes wrong: %v", sizes)
	}
}

func TestTable1GraphMatchesFigure3Structure(t *testing.T) {
	// Figure 3 shows three clusters (iPhone, iPod, iPad) over the Table-1
	// tasks using Jaccard with threshold 0.5, bridged only weakly. Verify
	// the clusters emerge: every same-domain pair connected within its
	// component.
	ds := task.ProductMatching()
	g, err := Build(ds.Len(), JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp := make(map[int]int)
	for ci, c := range g.Components() {
		for _, v := range c {
			comp[v] = ci
		}
	}
	// t1 (0) and t4 (3) are both iPhone tasks the paper calls similar.
	if comp[0] != comp[3] {
		t.Fatal("t1 and t4 should be in one cluster")
	}
	// t2 (1) and t7 (6) iPod tasks share an edge per the paper.
	if g.Sim(1, 6) == 0 {
		t.Fatal("t2-t7 edge missing")
	}
}

func TestMetricFor(t *testing.T) {
	ds := task.ProductMatching()
	for _, kind := range []MeasureKind{MeasureJaccard, MeasureTFIDF, MeasureTopic, MeasureEditDist} {
		m, err := MetricFor(kind, ds, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		s := m.Sim(0, 5)
		if s < 0 || s > 1+1e-9 {
			t.Fatalf("%s: similarity %v out of range", kind, s)
		}
	}
	if _, err := MetricFor("bogus", ds, 1); err == nil {
		t.Fatal("unknown measure should error")
	}
	// Euclidean needs features.
	if _, err := MetricFor(MeasureEuclid, ds, 1); err == nil {
		t.Fatal("euclidean without features should error")
	}
	poi := task.GeneratePOI(4, 1)
	m, err := MetricFor(MeasureEuclid, poi, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Sim(0, 1); s < 0 || s > 1 {
		t.Fatalf("euclidean sim %v out of range", s)
	}
}

func TestEuclideanMetricErrors(t *testing.T) {
	ds := &task.Dataset{Name: "x", Domains: []string{"D"}, Tasks: []task.Task{
		{ID: 0, Domain: "D", Features: []float64{1, 1}, Truth: task.Yes},
		{ID: 1, Domain: "D", Features: []float64{1, 1}, Truth: task.No},
	}}
	if _, err := EuclideanMetric(ds); err == nil {
		t.Fatal("identical features should error (zero max distance)")
	}
}

// TestTFIDFMetricDeterministic builds the Cos(tf-idf) metric twice over
// ItemCompare: every pair must score the same to the last bit, or two
// graphs (and bases) built from the same flags can differ.
func TestTFIDFMetricDeterministic(t *testing.T) {
	ds := task.GenerateItemCompare(1)
	a, b := TFIDFMetric(ds), TFIDFMetric(ds)
	differ := 0
	for i := 0; i < ds.Len(); i++ {
		for j := i + 1; j < ds.Len(); j++ {
			if math.Float64bits(a.Sim(i, j)) != math.Float64bits(b.Sim(i, j)) {
				differ++
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d pair similarities differ between two constructions", differ)
	}
}

// TestBuildDeterministicAcrossPoolSizes builds the graph of every measure
// at GOMAXPROCS 1 and 4 (the pool size Build's scoring pass takes): the
// CSR must be the same bit for bit. The textual measures score
// ItemCompare, Euclidean scores POI feature vectors; the Jaccard case is
// also built with a neighbour cap, which sees the edge list in the order
// the pool joined it.
func TestBuildDeterministicAcrossPoolSizes(t *testing.T) {
	itemCompare := task.GenerateItemCompare(1)
	cases := []struct {
		kind         MeasureKind
		ds           *task.Dataset
		threshold    float64
		maxNeighbors int
	}{
		{MeasureJaccard, itemCompare, 0.25, 0},
		{MeasureJaccard, itemCompare, 0.25, 5},
		{MeasureTFIDF, itemCompare, 0.25, 0},
		{MeasureTopic, itemCompare, 0.5, 0},
		{MeasureEditDist, itemCompare, 0.5, 0},
		{MeasureEuclid, task.GeneratePOI(30, 1), 0.8, 0},
	}
	for _, c := range cases {
		m, err := MetricFor(c.kind, c.ds, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		build := func(procs int) CSR {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g, err := Build(c.ds.Len(), m, c.threshold, c.maxNeighbors)
			if err != nil {
				t.Fatalf("%s: %v", c.kind, err)
			}
			return g.CSR()
		}
		one, four := build(1), build(4)
		if len(one.Cols) == 0 {
			t.Fatalf("%s at threshold %v: no edges", c.kind, c.threshold)
		}
		if !slices.Equal(one.RowPtr, four.RowPtr) || !slices.Equal(one.Cols, four.Cols) {
			t.Fatalf("%s cap %d: adjacency differs between GOMAXPROCS 1 and 4", c.kind, c.maxNeighbors)
		}
		for k := range one.Norm {
			if math.Float64bits(one.Norm[k]) != math.Float64bits(four.Norm[k]) {
				t.Fatalf("%s cap %d: Norm[%d] %v at GOMAXPROCS 1, %v at 4", c.kind, c.maxNeighbors, k, one.Norm[k], four.Norm[k])
			}
		}
	}
}
