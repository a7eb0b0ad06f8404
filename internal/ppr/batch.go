package ppr

import (
	"math/bits"
	"sort"

	"icrowd/internal/simgraph"
)

// laneCount is how many seeds one batchSolver walk advances: one lane per
// seed, a node's lanes adjacent in memory (one 64-byte cache line).
const laneCount = 8

// maxBatchedN bounds the graphs Precompute and PrecomputePartial solve in
// lane batches: the batch scratch is three lane arrays of N slots, ~3 MB
// per pool worker at this size. Larger graphs (Figure 10's start at 20,000
// tasks) keep the one-seed Solver and pay for no component pass.
const maxBatchedN = 1 << 14

// lanes holds one node's values for every seed of a batch.
type lanes [laneCount]float64

// batchSolver advances up to laneCount seeds together (laneBatches hands
// it seeds of one connected component). Lane l performs exactly the float
// operations of Solver.Solve for seed l, in the same order: the frontier
// union is walked in ascending node ID, and a node outside lane l's own
// frontier has a +0 residual in lane l, so its pushes add +0 to lane l's
// values (basis values are non-negative) and change no bit. Per-node lane
// masks record which lanes really touched, kept or visited each node, so
// each lane's DropTol drops, residual sum, iteration count and result
// support match its solo solve, including with DropTol = 0.
// TestBatchedPushMatchesReference pins this.
//
// A batchSolver is not safe for concurrent use; the precompute pool gives
// each worker its own.
type batchSolver struct {
	csr simgraph.CSR

	est []lanes // dense estimates, nonzero only in estMask lanes
	cur []lanes // current frontier residuals, zeroed as consumed
	nxt []lanes // next frontier residuals, nonzero only in nxtMask lanes

	estMask []uint8 // bit l: the node is in lane l's visited set
	curMask []uint8 // bit l: the node is in lane l's frontier
	nxtMask []uint8 // bit l: lane l's push pass touched the node

	estIDs []int // nodes with any estMask bit
	curIDs []int // sorted nodes with any curMask bit
	nxtIDs []int // nodes touched by the current push pass
}

func newBatchSolver(g *simgraph.Graph) *batchSolver {
	n := g.N()
	return &batchSolver{
		csr:     g.CSR(),
		est:     make([]lanes, n),
		cur:     make([]lanes, n),
		nxt:     make([]lanes, n),
		estMask: make([]uint8, n),
		curMask: make([]uint8, n),
		nxtMask: make([]uint8, n),
	}
}

// solve computes the basis vectors of seeds (distinct and in range, at most
// laneCount of them; o already validated) into vecs[seed] and res[seed],
// bit-identical to Solver.Solve for each seed.
func (b *batchSolver) solve(seeds []int, o Options, vecs []map[int]float64, res []Result) {
	c := 1 / (1 + o.Alpha)
	restart := o.Alpha / (1 + o.Alpha)

	var r [laneCount]Result
	var live uint8 // lanes still iterating
	for l, s := range seeds {
		bit := uint8(1) << l
		b.est[s][l] = restart
		b.estMask[s] = bit
		b.estIDs = append(b.estIDs, s)
		b.cur[s][l] = restart
		b.curMask[s] = bit
		b.curIDs = append(b.curIDs, s)
		r[l].Residual = restart
		live |= bit
	}
	sort.Ints(b.curIDs)

	for iter := 1; iter <= o.MaxIter && live != 0; iter++ {
		b.push(c)
		sort.Ints(b.nxtIDs)
		// Absorb pass in ascending j, lane by lane as Solver.Solve does it;
		// kept entries become the next frontier (curMask was cleared by the
		// push pass).
		var mass [laneCount]float64
		kept := b.nxtIDs[:0]
		for _, j := range b.nxtIDs {
			touched := b.nxtMask[j]
			b.nxtMask[j] = 0
			x, e := &b.nxt[j], &b.est[j]
			var keep uint8
			for l := 0; l < laneCount; l++ {
				if touched&(1<<l) == 0 {
					continue
				}
				v := x[l]
				if v < o.DropTol && -v < o.DropTol {
					x[l] = 0
					continue
				}
				e[l] += v
				if v < 0 {
					mass[l] -= v
				} else {
					mass[l] += v
				}
				keep |= 1 << l
			}
			if keep == 0 {
				continue
			}
			if b.estMask[j] == 0 {
				b.estIDs = append(b.estIDs, j)
			}
			b.estMask[j] |= keep
			b.curMask[j] = keep
			kept = append(kept, j)
		}
		var done uint8
		for l := range seeds {
			bit := uint8(1) << l
			if live&bit == 0 {
				continue
			}
			r[l].Iters = iter
			r[l].Residual = mass[l]
			if mass[l] <= o.Tol {
				r[l].Converged = true
				done |= bit
			}
		}
		if done != 0 {
			// Converged lanes leave the walk: clear their frontier so they
			// receive only +0 from here on.
			live &^= done
			kept = b.dropLanes(kept, b.nxt, done)
		}
		b.cur, b.nxt = b.nxt, b.cur
		b.curIDs, b.nxtIDs = kept, b.curIDs
	}
	// Lanes still live exhausted MaxIter with frontier mass undistributed.
	b.curIDs = b.dropLanes(b.curIDs, b.cur, live)
	mUnconverged.Add(int64(bits.OnesCount8(live)))

	var size [laneCount]int
	for _, j := range b.estIDs {
		for l, m := 0, b.estMask[j]; m != 0; l, m = l+1, m>>1 {
			size[l] += int(m & 1)
		}
	}
	for l, s := range seeds {
		bit := uint8(1) << l
		out := make(map[int]float64, size[l])
		for _, j := range b.estIDs {
			if b.estMask[j]&bit != 0 {
				out[j] = b.est[j][l]
			}
		}
		vecs[s] = out
		res[s] = r[l]
	}
	for _, j := range b.estIDs {
		b.est[j] = lanes{}
		b.estMask[j] = 0
	}
	b.estIDs = b.estIDs[:0]
}

// dropLanes zeroes the given lanes of the frontier ids/vals and returns the
// ids that still hold another lane.
func (b *batchSolver) dropLanes(ids []int, vals []lanes, drop uint8) []int {
	kept := ids[:0]
	for _, j := range ids {
		if m := b.curMask[j] & drop; m != 0 {
			for l := 0; l < laneCount; l++ {
				if m&(1<<l) != 0 {
					vals[j][l] = 0
				}
			}
			b.curMask[j] &^= m
		}
		if b.curMask[j] != 0 {
			kept = append(kept, j)
		}
	}
	return kept
}

// push is the batched push pass: every frontier node's lanes are pushed
// along its CSR row in one walk, ascending i then ascending j as in
// Solver.push, with the lane loop unrolled by hand (the compiler keeps the
// eight residuals in registers; a loop over the lanes is ~2x slower). The
// touched nodes collect, unsorted, in b.nxtIDs, and each one's nxtMask is
// the union of the masks of the frontier nodes that reached it.
func (b *batchSolver) push(c float64) {
	rowPtr, cols, norms := b.csr.RowPtr, b.csr.Cols, b.csr.Norm
	cur, curMask, nxtMask := b.cur, b.curMask, b.nxtMask
	nxt := b.nxt[:len(nxtMask)]
	nxtIDs := b.nxtIDs[:0]
	for _, i := range b.curIDs {
		m := curMask[i]
		curMask[i] = 0
		x := &cur[i]
		x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		*x = lanes{}
		lo, hi := rowPtr[i], rowPtr[i+1]
		rowCols, rowNorm := cols[lo:hi], norms[lo:hi]
		for k, j := range rowCols {
			if nxtMask[j] == 0 {
				nxtIDs = append(nxtIDs, int(j))
			}
			nxtMask[j] |= m
			w := c * rowNorm[k]
			p := &nxt[j]
			p[0] += w * x0
			p[1] += w * x1
			p[2] += w * x2
			p[3] += w * x3
			p[4] += w * x4
			p[5] += w * x5
			p[6] += w * x6
			p[7] += w * x7
		}
	}
	b.nxtIDs = nxtIDs
}

// laneBatches splits seeds into batches of up to laneCount seeds of one
// connected component, in ascending ID within each component, or returns
// nil when the graph is above maxBatchedN tasks or there is only one seed.
// A component's last batch may hold a single seed.
func laneBatches(g *simgraph.Graph, seeds []int) [][]int {
	if g.N() > maxBatchedN || len(seeds) < 2 {
		return nil
	}
	wanted := make([]bool, g.N())
	for _, s := range seeds {
		wanted[s] = true
	}
	flat := make([]int, 0, len(seeds)) // backing array every batch aliases
	var batches [][]int
	for _, comp := range g.Components() {
		start := len(flat)
		for _, i := range comp {
			if !wanted[i] {
				continue
			}
			flat = append(flat, i)
			if len(flat)-start == laneCount {
				batches = append(batches, flat[start:len(flat):len(flat)])
				start = len(flat)
			}
		}
		if len(flat) > start {
			batches = append(batches, flat[start:len(flat):len(flat)])
		}
	}
	return batches
}
