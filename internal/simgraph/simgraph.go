// Package simgraph implements the microtask similarity graph of Section 3:
// a weighted undirected graph over microtasks whose edges connect tasks with
// similarity at or above a threshold, stored in CSR form, together with the
// symmetric normalization S' = D^{-1/2} S D^{-1/2} used by the graph-based
// estimation model.
package simgraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Edge is an undirected weighted edge between two tasks.
type Edge struct {
	// I, J are task IDs with I != J.
	I, J int
	// Sim is the similarity s_ij in (0, 1].
	Sim float64
}

// Graph is an immutable weighted undirected similarity graph in CSR form.
type Graph struct {
	n      int
	rowPtr []int
	cols   []int32
	sims   []float64 // raw s_ij per CSR entry
	norm   []float64 // s_ij / sqrt(D_ii * D_jj) per CSR entry
	deg    []float64 // D_ii = sum_j s_ij
	edges  int
}

// ErrBadEdge reports an out-of-range or self-loop edge.
var ErrBadEdge = errors.New("simgraph: invalid edge")

// FromEdges builds a graph over n tasks from undirected edges. Duplicate
// (i, j) pairs keep the maximum similarity. Edges with non-positive
// similarity are dropped; out-of-range endpoints or self-loops error.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	return fromEdges(n, edges, make([]Edge, 0, len(edges)))
}

// fromEdges is FromEdges collecting the normalized edges in dst, which may
// be edges[:0]: Build hands over its own edge list that way, sparing a copy.
func fromEdges(n int, edges, dst []Edge) (*Graph, error) {
	// Normalize to i < j, dropping non-positive similarities; validate.
	norm := dst
	for _, e := range edges {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrBadEdge, e.I, e.J, n)
		}
		if e.I == e.J {
			return nil, fmt.Errorf("%w: self-loop at %d", ErrBadEdge, e.I)
		}
		if e.Sim <= 0 {
			continue
		}
		if e.I > e.J {
			e.I, e.J = e.J, e.I
		}
		norm = append(norm, e)
	}
	// Sort-based dedup (keep max similarity): scales to tens of millions of
	// edges without the memory blow-up of a hash map.
	sort.Slice(norm, func(a, b int) bool {
		if norm[a].I != norm[b].I {
			return norm[a].I < norm[b].I
		}
		if norm[a].J != norm[b].J {
			return norm[a].J < norm[b].J
		}
		return norm[a].Sim > norm[b].Sim
	})
	uniq := norm[:0]
	for _, e := range norm {
		if len(uniq) > 0 {
			last := &uniq[len(uniq)-1]
			if last.I == e.I && last.J == e.J {
				continue // first occurrence carries the max similarity
			}
		}
		uniq = append(uniq, e)
	}

	counts := make([]int, n)
	for _, e := range uniq {
		counts[e.I]++
		counts[e.J]++
	}
	g := &Graph{n: n, rowPtr: make([]int, n+1), deg: make([]float64, n), edges: len(uniq)}
	for i := 0; i < n; i++ {
		g.rowPtr[i+1] = g.rowPtr[i] + counts[i]
	}
	total := g.rowPtr[n]
	g.cols = make([]int32, total)
	g.sims = make([]float64, total)
	fill := make([]int, n)
	copy(fill, g.rowPtr[:n])
	for _, e := range uniq {
		g.cols[fill[e.I]] = int32(e.J)
		g.sims[fill[e.I]] = e.Sim
		fill[e.I]++
		g.cols[fill[e.J]] = int32(e.I)
		g.sims[fill[e.J]] = e.Sim
		fill[e.J]++
	}
	// Sort each adjacency row by column for deterministic iteration.
	for i := 0; i < n; i++ {
		lo, hi := g.rowPtr[i], g.rowPtr[i+1]
		cols := g.cols[lo:hi]
		sims := g.sims[lo:hi]
		sort.Sort(&rowSorter{cols, sims})
		for _, s := range sims {
			g.deg[i] += s
		}
	}
	// Normalized weights s_ij / sqrt(D_ii D_jj).
	g.norm = make([]float64, total)
	for i := 0; i < n; i++ {
		for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
			j := int(g.cols[k])
			d := g.deg[i] * g.deg[j]
			if d > 0 {
				g.norm[k] = g.sims[k] / math.Sqrt(d)
			}
		}
	}
	return g, nil
}

type rowSorter struct {
	cols []int32
	sims []float64
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.sims[i], r.sims[j] = r.sims[j], r.sims[i]
}

// Metric scores the similarity of two tasks by ID. Build calls Sim from
// several goroutines at once, so an implementation must be safe for
// concurrent use; the metrics of this package read only state fixed at
// construction.
type Metric interface {
	// Sim returns the similarity of tasks i and j in [0, 1].
	Sim(i, j int) float64
}

// MetricFunc adapts a plain function to the Metric interface.
type MetricFunc func(i, j int) float64

// Sim implements Metric.
func (f MetricFunc) Sim(i, j int) float64 { return f(i, j) }

// Build constructs the similarity graph over n tasks by scoring all pairs
// with the metric and keeping pairs with similarity >= threshold (Section
// 3.3). maxNeighbors > 0 caps each node's adjacency to its top-m most
// similar neighbors (the knob of Figure 10); 0 means unbounded.
//
// The rows (task i against every j > i) are scored by a pool of GOMAXPROCS
// goroutines that claim rows off a shared cursor. Each row's edges go into
// their own slice, and the slices are joined in row order, so the edge
// list, and with it the graph, is the same for any pool size.
func Build(n int, m Metric, threshold float64, maxNeighbors int) (*Graph, error) {
	if threshold <= 0 {
		return nil, errors.New("simgraph: threshold must be positive")
	}
	rows := make([][]Edge, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Edge // this goroutine's rows, each a subslice
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				start := len(buf)
				for j := i + 1; j < n; j++ {
					if s := m.Sim(i, j); s >= threshold {
						buf = append(buf, Edge{I: i, J: j, Sim: s})
					}
				}
				rows[i] = buf[start:]
			}
		}()
	}
	wg.Wait()
	edges := slices.Concat(rows...)
	if maxNeighbors > 0 {
		edges = capNeighbors(n, edges, maxNeighbors)
	}
	return fromEdges(n, edges, edges[:0])
}

// capNeighbors keeps an edge only if it ranks within the top-m similarities
// of both endpoints (mutual-kNN thinning).
func capNeighbors(n int, edges []Edge, m int) []Edge {
	per := make([][]Edge, n)
	for _, e := range edges {
		per[e.I] = append(per[e.I], e)
		per[e.J] = append(per[e.J], e)
	}
	type key struct{ i, j int }
	keep := make(map[key]int, len(edges))
	for i := 0; i < n; i++ {
		row := per[i]
		sort.Slice(row, func(a, b int) bool {
			if row[a].Sim != row[b].Sim {
				return row[a].Sim > row[b].Sim
			}
			if row[a].I != row[b].I {
				return row[a].I < row[b].I
			}
			return row[a].J < row[b].J
		})
		lim := m
		if lim > len(row) {
			lim = len(row)
		}
		for _, e := range row[:lim] {
			a, b := e.I, e.J
			if a > b {
				a, b = b, a
			}
			keep[key{a, b}]++
		}
	}
	out := edges[:0]
	seen := make(map[key]bool, len(keep))
	for _, e := range edges {
		a, b := e.I, e.J
		if a > b {
			a, b = b, a
		}
		k := key{a, b}
		if keep[k] == 2 && !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// BuildRandom generates a random similarity graph over n tasks where each
// task is linked to up to maxNeighbors random others with uniform random
// similarities in [0.5, 1). It reproduces the synthetic workload of the
// Figure-10 scalability experiment ("we randomly selected 40 microtasks as
// neighbors of the microtask").
func BuildRandom(n, maxNeighbors int, seed int64) (*Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n*maxNeighbors/2)
	for i := 0; i < n; i++ {
		for k := 0; k < maxNeighbors/2; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			edges = append(edges, Edge{I: i, J: j, Sim: 0.5 + rng.Float64()/2})
		}
	}
	return FromEdges(n, edges)
}

// CSR is a read-only compressed-sparse-row snapshot of the graph's
// adjacency: row i's neighbors are Cols[RowPtr[i]:RowPtr[i+1]] (ascending),
// with the normalized weights S'_ij in Norm at the same positions. It
// exists for solvers that iterate edges in their innermost loop (the
// push-style PPR solver) where the per-neighbor callback of Neighbors is
// measurable overhead. The slices alias the graph's internal storage and
// must not be mutated.
type CSR struct {
	N      int
	RowPtr []int
	Cols   []int32
	Norm   []float64
}

// CSR returns the adjacency snapshot. O(1): no copying.
func (g *Graph) CSR() CSR {
	return CSR{N: g.n, RowPtr: g.rowPtr, Cols: g.cols, Norm: g.norm}
}

// N returns the number of tasks (nodes).
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns D_ii, the similarity-weighted degree of task i.
func (g *Graph) Degree(i int) float64 { return g.deg[i] }

// NumNeighbors returns the number of neighbors of task i.
func (g *Graph) NumNeighbors(i int) int { return g.rowPtr[i+1] - g.rowPtr[i] }

// Neighbors calls fn for every neighbor j of i with the raw similarity s_ij
// and the normalized weight s_ij / sqrt(D_ii D_jj). Iteration is in
// ascending j order.
func (g *Graph) Neighbors(i int, fn func(j int, sim, norm float64)) {
	for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
		fn(int(g.cols[k]), g.sims[k], g.norm[k])
	}
}

// Sim returns the similarity s_ij, or 0 when no edge exists.
func (g *Graph) Sim(i, j int) float64 {
	lo, hi := g.rowPtr[i], g.rowPtr[i+1]
	cols := g.cols[lo:hi]
	idx := sort.Search(len(cols), func(k int) bool { return int(cols[k]) >= j })
	if idx < len(cols) && int(cols[idx]) == j {
		return g.sims[lo+idx]
	}
	return 0
}

// NormSim returns the normalized weight S'_ij, or 0 when no edge exists.
func (g *Graph) NormSim(i, j int) float64 {
	lo, hi := g.rowPtr[i], g.rowPtr[i+1]
	cols := g.cols[lo:hi]
	idx := sort.Search(len(cols), func(k int) bool { return int(cols[k]) >= j })
	if idx < len(cols) && int(cols[idx]) == j {
		return g.norm[lo+idx]
	}
	return 0
}

// NormRowSum returns sum_j S'_ij for task i. Note that although individual
// row sums can exceed 1, the spectral radius of S' = D^{-1/2} S D^{-1/2} is
// at most 1 (it is similar to the random-walk matrix D^{-1} S), which is
// what guarantees convergence of the Eq. (4) iteration for any alpha > 0.
func (g *Graph) NormRowSum(i int) float64 {
	var s float64
	for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
		s += g.norm[k]
	}
	return s
}

// Components returns the connected components of the graph as slices of
// task IDs; singleton components are included.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		var comp []int
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for k := g.rowPtr[v]; k < g.rowPtr[v+1]; k++ {
				j := int(g.cols[k])
				if !seen[j] {
					seen[j] = true
					queue = append(queue, j)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
