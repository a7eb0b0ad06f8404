// Package qualify implements Section 5 of the paper: qualification-microtask
// selection by influence maximization (Algorithm 4, with the 1-1/e greedy
// guarantee), the RandomQF baseline, and the Warm-Up component that scores
// new workers on qualification microtasks and rejects bad ones.
package qualify

import (
	"errors"
	"math/bits"
	"math/rand"
	"sort"

	"icrowd/internal/ppr"
	"icrowd/internal/task"
)

// Influence computes INF(T^q) (Section 5): the number of tasks whose
// estimated accuracy is nonzero when every qualification microtask in qual
// is answered correctly. Because basis entries are non-negative, the
// combined vector's support is exactly the union of per-seed supports, so
// influence is the coverage of qual's supports.
func Influence(b *ppr.Basis, qual []int) int {
	covered := map[int]bool{}
	for _, t := range qual {
		for _, j := range b.Support(t) {
			covered[j] = true
		}
	}
	return len(covered)
}

// InfluenceSoft computes the probabilistic-coverage influence the greedy
// optimizes: sum_j (1 - prod_{t in qual} (1 - min(1, p_t(j)/restart))).
// It refines the binary INF of Section 5 with diminishing returns for
// overlapping coverage; see SelectGreedy.
func InfluenceSoft(b *ppr.Basis, qual []int) float64 {
	o := b.Options()
	restart := o.Alpha / (1 + o.Alpha)
	cov := map[int]float64{}
	for _, t := range qual {
		for j, p := range b.Vec(t) {
			w := p / restart
			if w > 1 {
				w = 1
			}
			cov[j] = 1 - (1-cov[j])*(1-w)
		}
	}
	var total float64
	for _, c := range cov {
		total += c
	}
	return total
}

// SelectGreedy implements Algorithm 4: greedily pick up to q qualification
// microtasks maximizing marginal influence. Ties break toward the lowest
// task ID. The greedy enjoys the classic (1 - 1/e) approximation because
// the influence objective is monotone submodular.
//
// The gain function refines the paper's binary indicator into probabilistic
// coverage: task t covers task j with weight min(1, p_t(j)/restart), and a
// set covers j with 1 - prod(1 - w). Binary coverage saturates after one
// pick per graph cluster, after which every remaining pick is a tie and the
// budget is wasted on outliers; probabilistic coverage keeps rewarding
// additional picks inside large clusters (with diminishing returns), which
// is what makes the selected qualification microtasks "focused" on the
// individual domains, as Section 6.3.1 describes.
//
// Each task's coverage row is built once per call, ascending by covered
// task (the order every gain is summed in): the vector's entries go into a
// dense scratch array and a node bitset, and the set words of the bitset
// are walked in order, so no row is sorted.
func SelectGreedy(b *ppr.Basis, q int) ([]int, error) {
	if q < 1 {
		return nil, errors.New("qualify: q must be >= 1")
	}
	n := b.N()
	o := b.Options()
	restart := o.Alpha / (1 + o.Alpha)
	type coverage struct {
		j int     // covered task
		w float64 // min(1, p_t(j)/restart)
	}
	rows := make([][]coverage, n)
	buf := make([]coverage, 0, b.NNZ())
	dense := make([]float64, n)
	member := make([]uint64, (n+63)/64)
	for t := range rows {
		lo, hi := len(member), 0 // words of member the row sets
		for j, p := range b.Vec(t) {
			dense[j] = p
			member[j>>6] |= 1 << (j & 63)
			lo, hi = min(lo, j>>6), max(hi, j>>6+1)
		}
		start := len(buf)
		for wi := lo; wi < hi; wi++ {
			word := member[wi]
			member[wi] = 0
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				w := dense[j] / restart
				if w > 1 {
					w = 1
				}
				buf = append(buf, coverage{j, w})
			}
		}
		rows[t] = buf[start:]
	}
	cov := make([]float64, n)
	chosen := make([]int, 0, q)
	inChosen := make([]bool, n)
	for len(chosen) < q && len(chosen) < n {
		best, bestGain := -1, -1.0
		for t, row := range rows {
			if inChosen[t] {
				continue
			}
			var gain float64
			for _, c := range row {
				gain += (1 - cov[c.j]) * c.w
			}
			if gain > bestGain+1e-12 {
				best, bestGain = t, gain
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		inChosen[best] = true
		for _, c := range rows[best] {
			cov[c.j] = 1 - (1-cov[c.j])*(1-c.w)
		}
	}
	sort.Ints(chosen)
	return chosen, nil
}

// SelectRandom is the RandomQF baseline: q distinct tasks drawn uniformly.
func SelectRandom(nTasks, q int, seed int64) ([]int, error) {
	if q < 1 {
		return nil, errors.New("qualify: q must be >= 1")
	}
	if q > nTasks {
		q = nTasks
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nTasks)[:q]
	sort.Ints(perm)
	return perm, nil
}

// Strategy names a qualification-selection strategy (Figure 7).
type Strategy string

// The two strategies compared in Section 6.3.1.
const (
	RandomQF Strategy = "RandomQF"
	InfQF    Strategy = "InfQF"
)

// Select picks q qualification microtasks with the named strategy.
func Select(s Strategy, b *ppr.Basis, q int, seed int64) ([]int, error) {
	switch s {
	case RandomQF:
		return SelectRandom(b.N(), q, seed)
	case InfQF:
		return SelectGreedy(b, q)
	default:
		return nil, errors.New("qualify: unknown strategy " + string(s))
	}
}

// DefaultThreshold is the warm-up rejection threshold the paper uses in its
// example ("given a threshold 0.6 ... iCrowd rejects the worker").
const DefaultThreshold = 0.6

// WarmUp scores new workers on qualification microtasks and decides
// acceptance (Section 2.2, Warm-Up component).
type WarmUp struct {
	qual      []int
	truths    map[int]task.Answer
	threshold float64
}

// NewWarmUp builds the component from the dataset's ground truths for the
// chosen qualification tasks. threshold <= 0 uses DefaultThreshold.
func NewWarmUp(ds *task.Dataset, qual []int, threshold float64) (*WarmUp, error) {
	if len(qual) == 0 {
		return nil, errors.New("qualify: empty qualification set")
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	w := &WarmUp{
		qual:      append([]int(nil), qual...),
		truths:    make(map[int]task.Answer, len(qual)),
		threshold: threshold,
	}
	for _, t := range qual {
		if t < 0 || t >= ds.Len() {
			return nil, errors.New("qualify: qualification task out of range")
		}
		w.truths[t] = ds.Tasks[t].Truth
	}
	return w, nil
}

// Tasks returns the qualification task IDs.
func (w *WarmUp) Tasks() []int { return append([]int(nil), w.qual...) }

// Threshold returns the rejection threshold.
func (w *WarmUp) Threshold() float64 { return w.threshold }

// IsQualification reports whether taskID is a qualification microtask.
func (w *WarmUp) IsQualification(taskID int) bool {
	_, ok := w.truths[taskID]
	return ok
}

// Grade compares a worker's answer on a qualification microtask with the
// ground truth. ok is false when taskID is not a qualification task.
func (w *WarmUp) Grade(taskID int, ans task.Answer) (correct, ok bool) {
	truth, ok := w.truths[taskID]
	if !ok {
		return false, false
	}
	return ans == truth, true
}

// Evaluate scores a full set of qualification answers: it returns the
// average accuracy and whether the worker passes the threshold. Unanswered
// qualification tasks count as incorrect.
func (w *WarmUp) Evaluate(answers map[int]task.Answer) (avg float64, pass bool) {
	if len(w.qual) == 0 {
		return 0, false
	}
	correct := 0
	for _, t := range w.qual {
		if answers[t] == w.truths[t] {
			correct++
		}
	}
	avg = float64(correct) / float64(len(w.qual))
	return avg, avg >= w.threshold
}
