package ppr

import (
	"errors"
	"sort"

	"icrowd/internal/simgraph"
)

// Solver is a reusable push-style sparse PPR solver over a CSR snapshot of
// the similarity graph. It runs the same frontier expansion as the
// reference map-based SparseSolve — restart * sum_k (c S')^k e_seed with
// per-iteration DropTol truncation — but keeps the estimate and the two
// frontier generations in dense scratch arrays with a visited-stack reset,
// so a solve allocates nothing beyond its result map. Frontier nodes are
// pushed in ascending ID order, making the floating-point accumulation
// order identical to the reference solver's sorted-map iteration: results
// are bit-exact against SparseSolve (pinned by TestPushMatchesSparseFuzz)
// and therefore bit-identical across worker counts.
//
// A Solver is not safe for concurrent use; the precompute pool gives each
// worker its own.
type Solver struct {
	csr simgraph.CSR

	est []float64 // dense estimate p, nonzero only at estIDs
	cur []float64 // current frontier (residual) values, zeroed as consumed
	nxt []float64 // next frontier values, nonzero only at nxtIDs mid-iteration

	estIDs []int  // visited stack: indices with est mass
	curIDs []int  // sorted indices with cur mass
	nxtIDs []int  // indices touched by the current push pass
	inEst  []bool // membership marker for estIDs
	inNxt  []bool // membership marker for nxtIDs
}

// NewSolver builds a solver over g's CSR snapshot. The dense scratch costs
// O(N) memory once and is reused across every subsequent Solve.
func NewSolver(g *simgraph.Graph) *Solver {
	n := g.N()
	return &Solver{
		csr:   g.CSR(),
		est:   make([]float64, n),
		cur:   make([]float64, n),
		nxt:   make([]float64, n),
		inEst: make([]bool, n),
		inNxt: make([]bool, n),
	}
}

// Solve computes the basis vector p_{t_seed} exactly as SparseSolve does,
// returning the sparse result and how the solve terminated. The only
// allocation on the steady path is the result map.
func (s *Solver) Solve(seed int, o Options) (map[int]float64, Result, error) {
	if err := o.validate(); err != nil {
		return nil, Result{}, err
	}
	if seed < 0 || seed >= s.csr.N {
		return nil, Result{}, errors.New("ppr: seed out of range")
	}
	c := 1 / (1 + o.Alpha)
	restart := o.Alpha / (1 + o.Alpha)

	s.est[seed] = restart
	s.inEst[seed] = true
	s.estIDs = append(s.estIDs[:0], seed)
	s.cur[seed] = restart
	s.curIDs = append(s.curIDs[:0], seed)

	res := Result{Residual: restart}
	for res.Iters < o.MaxIter && len(s.curIDs) > 0 {
		res.Iters++
		s.push(c)
		sort.Ints(s.nxtIDs)
		// Absorb pass in ascending j: drop sub-DropTol entries (their
		// residual mass is what Result.Residual accounts for on an
		// unconverged exit), fold the rest into the estimate, and keep them
		// as the next frontier.
		var mass float64
		kept := s.nxtIDs[:0]
		for _, j := range s.nxtIDs {
			s.inNxt[j] = false
			x := s.nxt[j]
			if x < o.DropTol && -x < o.DropTol {
				s.nxt[j] = 0
				continue
			}
			if !s.inEst[j] {
				s.inEst[j] = true
				s.estIDs = append(s.estIDs, j)
			}
			s.est[j] += x
			if x < 0 {
				mass -= x
			} else {
				mass += x
			}
			kept = append(kept, j)
		}
		res.Residual = mass
		if mass <= o.Tol {
			res.Converged = true
			for _, j := range kept {
				s.nxt[j] = 0
			}
			s.curIDs = s.curIDs[:0]
			break
		}
		// Advance a generation: cur (fully zeroed above) becomes the blank
		// next-pass scratch, kept becomes the frontier.
		s.cur, s.nxt = s.nxt, s.cur
		s.curIDs, s.nxtIDs = kept, s.curIDs
	}
	if !res.Converged {
		// MaxIter exhausted with frontier mass undistributed: reset the
		// leftover residuals so the scratch stays clean for the next seed.
		for _, i := range s.curIDs {
			s.cur[i] = 0
		}
		s.curIDs = s.curIDs[:0]
		mUnconverged.Inc()
	}
	out := make(map[int]float64, len(s.estIDs))
	for _, j := range s.estIDs {
		out[j] = s.est[j]
		s.est[j] = 0
		s.inEst[j] = false
	}
	s.estIDs = s.estIDs[:0]
	return out, res, nil
}

// push is Solve's push pass: it distributes every frontier node's mass to
// its CSR row, ascending i then ascending j — the exact accumulation order
// of the reference solver's sorted-map iteration — and collects the
// touched nodes, unsorted, in s.nxtIDs. Fields are read into locals once
// and each row is taken as a pair of subslices, so the per-edge loop
// re-reads no struct field (the append to nxtIDs would otherwise force
// it to); slicing nxt to the marker's length lets the marker's bounds
// check cover the write to nxt[j] as well.
func (s *Solver) push(c float64) {
	rowPtr, cols, norms := s.csr.RowPtr, s.csr.Cols, s.csr.Norm
	cur, inNxt := s.cur, s.inNxt
	nxt := s.nxt[:len(inNxt)]
	nxtIDs := s.nxtIDs[:0]
	for _, i := range s.curIDs {
		x := cur[i]
		cur[i] = 0
		lo, hi := rowPtr[i], rowPtr[i+1]
		rowCols, rowNorm := cols[lo:hi], norms[lo:hi]
		for k, j := range rowCols {
			if !inNxt[j] {
				inNxt[j] = true
				nxtIDs = append(nxtIDs, int(j))
			}
			nxt[j] += c * rowNorm[k] * x
		}
	}
	s.nxtIDs = nxtIDs
}
