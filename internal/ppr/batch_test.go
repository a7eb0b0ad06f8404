package ppr

import (
	"math/rand"
	"testing"

	"icrowd/internal/simgraph"
)

// componentGraph builds a graph whose connected components have the given
// sizes (size 1 is an isolated node), with node IDs shuffled so the
// components' members interleave. Each component is a random spanning tree
// plus extra random edges inside it. It returns the graph and each
// component's members.
func componentGraph(t *testing.T, sizes []int, rng *rand.Rand) (*simgraph.Graph, [][]int) {
	t.Helper()
	n := 0
	for _, s := range sizes {
		n += s
	}
	perm := rng.Perm(n)
	var edges []simgraph.Edge
	comps := make([][]int, len(sizes))
	for c, size := range sizes {
		comps[c], perm = perm[:size], perm[size:]
		for k := 1; k < size; k++ {
			edges = append(edges, simgraph.Edge{I: comps[c][k], J: comps[c][rng.Intn(k)], Sim: 0.05 + 0.95*rng.Float64()})
			if a, b := rng.Intn(size), rng.Intn(size); a != b {
				edges = append(edges, simgraph.Edge{I: comps[c][a], J: comps[c][b], Sim: 0.05 + 0.95*rng.Float64()})
			}
		}
	}
	g, err := simgraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, comps
}

// referenceSolves solves each seed alone with Solver.Solve and returns the
// vectors, the Results and how many of them ended unconverged.
func referenceSolves(t *testing.T, g *simgraph.Graph, seeds []int, o Options) ([]map[int]float64, []Result, int64) {
	t.Helper()
	vecs := make([]map[int]float64, g.N())
	res := make([]Result, g.N())
	var unconverged int64
	sv := NewSolver(g)
	for _, s := range seeds {
		v, r, err := sv.Solve(s, o)
		if err != nil {
			t.Fatal(err)
		}
		vecs[s], res[s] = v, r
		if !r.Converged {
			unconverged++
		}
	}
	return vecs, res, unconverged
}

// TestBatchedPushMatchesReference pins the batched kernel to the one-seed
// push solver bit for bit: every vector, every Result and every
// icrowd_ppr_unconverged_total increment, through PrecomputePartial at
// Workers 1, 2 and 8 and through the kernel directly at every batch width.
// It runs once per row kernel (forEachRowKernel). The graphs have 192
// nodes, three words of the touched bitset, in components of uneven size
// and isolated nodes; the seeds come out of order with duplicates, and are
// chosen so the plan holds batches of every width from 1 to 8. One more
// batch holds an isolated node (a row of length 0), a node with one
// neighbour and the highest node ID. The options are
// TestPushMatchesSparseFuzz's set (DropTol 0 and 1e-3 included), each also
// run with a MaxIter that ends one batch with lanes unconverged while a
// batch-mate converges.
func TestBatchedPushMatchesReference(t *testing.T) {
	forEachRowKernel(t, testBatchedPushMatchesReference)
}

// forEachRowKernel runs f as a subtest once per row kernel of the batched
// push pass: pushRowAVX2 where the CPU has AVX2, then pushRow with useAVX2
// cleared, so the loop arm64 and pre-AVX2 CPUs run stays pinned on an AVX2
// machine too.
func forEachRowKernel(t *testing.T, f func(t *testing.T)) {
	hasAVX2 := useAVX2
	t.Cleanup(func() { useAVX2 = hasAVX2 })
	if hasAVX2 {
		t.Run("avx2", f)
	} else {
		t.Log("no AVX2 kernel on this machine; only the portable pushRow runs")
	}
	useAVX2 = false
	t.Run("go", f)
}

func testBatchedPushMatchesReference(t *testing.T) {
	// Seeds per component: batches of 8 and last batches of 6, 5, 7, 4, 3,
	// 2 and 1, then three isolated nodes solved alone; the last three
	// components get no seed.
	sizes := []int{70, 30, 14, 11, 9, 6, 4, 3, 2, 1, 1, 1, 1, 1, 38}
	perComp := []int{70, 13, 7, 4, 3, 2, 1, 0, 0, 1, 1, 1, 0, 0, 0}
	type cfg struct {
		alpha, dropTol float64
	}
	cfgs := []cfg{
		{1.0, 1e-7},
		{0.3, 1e-7},
		{2.5, 0},
		{1.0, 1e-3},
		{0.1, 1e-5},
	}
	for _, gseed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(gseed))
		g, comps := componentGraph(t, sizes, rng)
		var uniq []int
		for c, k := range perComp {
			uniq = append(uniq, comps[c][:k]...)
		}
		widths := map[int]bool{}
		for _, b := range laneBatches(g, uniq) {
			widths[len(b)] = true
		}
		for w := 1; w <= laneCount; w++ {
			if !widths[w] {
				t.Fatalf("graph %d: no batch of width %d in the plan", gseed, w)
			}
		}
		seeds := append(append([]int(nil), uniq...), uniq[3], uniq[80], uniq[len(uniq)-1], uniq[3])
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		edge := edgeBatch(t, g, comps)

		for _, c := range cfgs {
			o := DefaultOptions()
			o.Alpha, o.DropTol = c.alpha, c.dropTol
			_, full, _ := referenceSolves(t, g, uniq, o)
			mixed := o
			mixed.MaxIter = 0
			for _, b := range laneBatches(g, uniq) {
				lo, hi := full[b[0]].Iters, full[b[0]].Iters
				for _, s := range b {
					lo, hi = min(lo, full[s].Iters), max(hi, full[s].Iters)
				}
				if lo < hi {
					mixed.MaxIter = lo // the lo lane converges on the last pass, the hi lane does not
					break
				}
			}
			if mixed.MaxIter == 0 {
				t.Fatalf("graph %d %+v: no batch whose lanes need different iteration counts", gseed, c)
			}
			for _, o := range []Options{o, mixed} {
				wantVecs, wantRes, wantUnconverged := referenceSolves(t, g, uniq, o)
				for _, workers := range []int{1, 2, 8} {
					o.Workers = workers
					before := mUnconverged.Value()
					b, err := PrecomputePartial(g, o, seeds)
					if err != nil {
						t.Fatal(err)
					}
					if got := mUnconverged.Value() - before; got != wantUnconverged {
						t.Fatalf("graph %d %+v workers %d: unconverged counter +%d, want +%d", gseed, c, workers, got, wantUnconverged)
					}
					for i := 0; i < g.N(); i++ {
						if (wantVecs[i] == nil) != (b.Vec(i) == nil) {
							t.Fatalf("graph %d task %d: solved %v, want %v", gseed, i, b.Vec(i) != nil, wantVecs[i] != nil)
						}
						identicalVecs(t, i, wantVecs[i], b.Vec(i))
						identicalResults(t, i, wantRes[i], b.SolveResult(i))
					}
				}

				// The kernel itself, at every width, on one reused scratch,
				// with batch-mates drawn from different components, and then
				// on the edge batch.
				bs := newBatchSolver(g)
				vecs := make([]map[int]float64, g.N())
				res := make([]Result, g.N())
				batches := make([][]int, 0, laneCount+1)
				for w := 1; w <= laneCount; w++ {
					var batch []int
					for _, s := range rng.Perm(len(uniq))[:w] {
						batch = append(batch, uniq[s])
					}
					batches = append(batches, batch)
				}
				edgeVecs, edgeRes, _ := referenceSolves(t, g, edge, o)
				for _, s := range edge {
					wantVecs[s], wantRes[s] = edgeVecs[s], edgeRes[s]
				}
				for _, batch := range append(batches, edge) {
					before := mUnconverged.Value()
					bs.solve(batch, o, vecs, res)
					var want int64
					for _, s := range batch {
						identicalVecs(t, s, wantVecs[s], vecs[s])
						identicalResults(t, s, wantRes[s], res[s])
						if !wantRes[s].Converged {
							want++
						}
					}
					if got := mUnconverged.Value() - before; got != want {
						t.Fatalf("graph %d %+v batch %v: unconverged counter +%d, want +%d", gseed, c, batch, got, want)
					}
				}
			}
		}
	}
}

// edgeBatch returns a batch for the kernel's edge cases on a
// componentGraph: an isolated node, a node whose row has one entry, and the
// highest node ID (bit 63 of the touched bitset's last word, N being a
// multiple of 64), with a node of the largest component, so that the
// batch's vectors reach every word of the bitset.
func edgeBatch(t *testing.T, g *simgraph.Graph, comps [][]int) []int {
	t.Helper()
	top := g.N() - 1
	isolated, oneEntry := -1, -1
	for _, comp := range comps {
		switch {
		case len(comp) == 1:
			isolated = comp[0]
		case len(comp) == 2:
			oneEntry = comp[0]
			if oneEntry == top {
				oneEntry = comp[1]
			}
		}
	}
	big := comps[0][0]
	if big == top {
		big = comps[0][1]
	}
	if isolated < 0 || oneEntry < 0 || g.NumNeighbors(top) == 0 || g.N()%64 != 0 {
		t.Fatalf("graph lacks an edge case: isolated %d, one-entry row %d, top node %d with %d neighbours, N=%d",
			isolated, oneEntry, top, g.NumNeighbors(top), g.N())
	}
	batch := []int{isolated, oneEntry, top, big}
	vecs, _, _ := referenceSolves(t, g, batch, DefaultOptions())
	words := map[int]bool{}
	for _, s := range batch {
		for j := range vecs[s] {
			words[j>>6] = true
		}
	}
	if len(words) != g.N()/64 {
		t.Fatalf("edge batch %v reaches %d of the touched bitset's %d words", batch, len(words), g.N()/64)
	}
	return batch
}
