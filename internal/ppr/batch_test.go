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
// The graphs have components of uneven size and isolated nodes; the seeds
// come out of order with duplicates, and are chosen so the plan holds
// batches of every width from 1 to 8. The options are
// TestPushMatchesSparseFuzz's set (DropTol 0 and 1e-3 included), each also
// run with a MaxIter that ends one batch with lanes unconverged while a
// batch-mate converges.
func TestBatchedPushMatchesReference(t *testing.T) {
	// Seeds per component: batches of 8 and last batches of 6, 5, 7, 4, 3,
	// 2 and 1, then three isolated nodes solved alone and two left out.
	sizes := []int{70, 30, 14, 11, 9, 6, 4, 3, 2, 1, 1, 1, 1, 1}
	perComp := []int{70, 13, 7, 4, 3, 2, 1, 0, 0, 1, 1, 1, 0, 0}
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
				// with batch-mates drawn from different components.
				bs := newBatchSolver(g)
				vecs := make([]map[int]float64, g.N())
				res := make([]Result, g.N())
				for w := 1; w <= laneCount; w++ {
					var batch []int
					for _, s := range rng.Perm(len(uniq))[:w] {
						batch = append(batch, uniq[s])
					}
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
						t.Fatalf("graph %d %+v width %d: unconverged counter +%d, want +%d", gseed, c, w, got, want)
					}
				}
			}
		}
	}
}
