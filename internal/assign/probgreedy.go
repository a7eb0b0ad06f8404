package assign

import "icrowd/internal/aggregate"

// SetAccuracy evaluates Eq. (1) for a candidate assignment: the probability
// that strictly more than half of its workers answer correctly, assuming
// independence.
func SetAccuracy(a CandidateAssignment) (float64, error) {
	ps := make([]float64, len(a.Workers))
	for i, c := range a.Workers {
		ps[i] = c.Accuracy
	}
	return aggregate.WorkerSetAccuracy(ps)
}

// GreedyByProbability is an ablation variant of Algorithm 3 that selects
// candidates by their Eq.-(1) worker-set accuracy Pr(W_t) instead of the
// paper's average-accuracy score. Pr(W_t) is the quantity the global
// objective of Section 2.1 actually sums, so this variant asks: does
// scoring candidates by the probability majority voting succeeds change the
// greedy's schemes? (Benchmarks and tests compare the two; with uniform
// set sizes the orderings usually coincide, because Pr(W_t) is monotone in
// each member accuracy.)
func GreedyByProbability(cands []CandidateAssignment) []CandidateAssignment {
	return greedyBy(cands, func(a CandidateAssignment) (float64, bool) {
		p, err := SetAccuracy(a)
		return p, err == nil
	})
}

// SchemeExpectedCorrect sums Eq. (1) over a scheme: the expected number of
// microtasks the scheme resolves correctly — the Section-2.1 objective the
// Definition-4 surrogate stands in for.
func SchemeExpectedCorrect(scheme []CandidateAssignment) (float64, error) {
	var total float64
	for _, a := range scheme {
		p, err := SetAccuracy(a)
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total, nil
}
