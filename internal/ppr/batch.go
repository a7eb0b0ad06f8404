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

	// touched has bit j set while node j has a nonzero nxtMask: the absorb
	// pass walks it word by word, which yields the nodes the push pass
	// reached in ascending ID without sorting them (N/64 words a pass).
	touched []uint64

	estIDs []int // nodes with any estMask bit
	curIDs []int // ascending nodes with any curMask bit
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
		touched: make([]uint64, (n+63)/64),
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
		// Absorb pass in ascending j, lane by lane as Solver.Solve does it;
		// kept entries become the next frontier. The push pass has consumed
		// curIDs and cleared curMask, so kept reuses curIDs' storage.
		var mass [laneCount]float64
		kept := b.curIDs[:0]
		for wi, word := range b.touched {
			if word == 0 {
				continue
			}
			b.touched[wi] = 0
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				reached := b.nxtMask[j]
				b.nxtMask[j] = 0
				x, e := &b.nxt[j], &b.est[j]
				var keep uint8
				for l := 0; l < laneCount; l++ {
					if reached&(1<<l) == 0 {
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
		b.curIDs = kept
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
// along its CSR row, ascending i then ascending j as in Solver.push, by the
// AVX2 row kernel where the CPU has it and by pushRow otherwise. Every node
// a row reaches gets the row's lane mask ORed into its nxtMask and, on its
// first touch of the pass, its bit set in b.touched.
func (b *batchSolver) push(c float64) {
	rowPtr, cols, norms := b.csr.RowPtr, b.csr.Cols, b.csr.Norm
	cur, curMask := b.cur, b.curMask
	nxt, nxtMask, touched := b.nxt, b.nxtMask, b.touched
	avx2 := useAVX2
	for _, i := range b.curIDs {
		m := curMask[i]
		curMask[i] = 0
		lo, hi := rowPtr[i], rowPtr[i+1]
		if avx2 {
			pushRowAVX2(cols[lo:hi], norms[lo:hi], c, &cur[i], m, nxt, nxtMask, touched)
		} else {
			pushRow(cols[lo:hi], norms[lo:hi], c, &cur[i], m, nxt, nxtMask, touched)
		}
		cur[i] = lanes{}
	}
}

// pushRow is the portable row kernel and the reference pushRowAVX2 is
// pinned to: for each k it adds w*x[l] to lane l of nxt[cols[k]], with
// w = c*norms[k] rounded once as in Solver.push, ORs m into
// nxtMask[cols[k]] and marks a node's first touch in the touched bitset.
// The lane loop is unrolled by hand (the compiler keeps the eight residuals
// in registers; a loop over the lanes is ~2x slower).
func pushRow(cols []int32, norms []float64, c float64, x *lanes, m uint8, nxt []lanes, nxtMask []uint8, touched []uint64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	nxt = nxt[:len(nxtMask)]
	norms = norms[:len(cols)]
	for k, j := range cols {
		if nxtMask[j] == 0 {
			touched[j>>6] |= 1 << (j & 63)
		}
		nxtMask[j] |= m
		w := c * norms[k]
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
