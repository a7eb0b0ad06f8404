// Package er implements crowdsourced entity resolution, the application
// that motivates the paper's running examples (Section 1 and Table 1, after
// CrowdER [32]): given a set of records, it generates candidate
// record pairs by similarity blocking, turns each pair into a binary
// "are these the same entity?" microtask, resolves the microtasks through
// any core.Strategy, and clusters the records by the transitive closure of
// the crowd's YES verdicts.
package er

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"icrowd/internal/core"
	"icrowd/internal/task"
	"icrowd/internal/textsim"
)

// Record is one entity description to resolve.
type Record struct {
	// ID identifies the record.
	ID string
	// Text is the record's description (e.g. a product title).
	Text string
	// Entity optionally carries the ground-truth entity label for
	// evaluation; empty means unknown.
	Entity string
}

// Pair is a candidate duplicate pair of record indices (I < J).
type Pair struct {
	I, J int
	// Sim is the blocking similarity that promoted the pair.
	Sim float64
}

// BlockingConfig controls candidate-pair generation.
type BlockingConfig struct {
	// MinSim keeps only pairs with token Jaccard similarity >= MinSim
	// (default 0.3). Blocking is the standard trick that keeps the number
	// of crowd questions quadratic only within small blocks.
	MinSim float64
	// MaxPairs caps the number of generated microtasks (0 = unlimited);
	// the highest-similarity pairs are kept.
	MaxPairs int
}

// Job is a prepared entity-resolution crowd job.
type Job struct {
	records []Record
	pairs   []Pair
	dataset *task.Dataset
}

// NewJob tokenizes the records, generates candidate pairs by Jaccard
// blocking, and builds the microtask dataset. Ground-truth answers come
// from the records' Entity labels (records without labels produce tasks
// whose Truth defaults to NO — fine for running the crowd, but evaluation
// metrics then undercount).
func NewJob(records []Record, cfg BlockingConfig) (*Job, error) {
	if len(records) < 2 {
		return nil, errors.New("er: need at least two records")
	}
	if cfg.MinSim <= 0 {
		cfg.MinSim = 0.3
	}
	tokens := make([][]string, len(records))
	for i, r := range records {
		tokens[i] = textsim.Tokenize(r.Text)
		if len(tokens[i]) == 0 {
			return nil, fmt.Errorf("er: record %s has no tokens", r.ID)
		}
	}
	sets := textsim.NewTokenSets(tokens)
	var pairs []Pair
	for i := range records {
		for j := i + 1; j < len(records); j++ {
			s := sets.Jaccard(i, j)
			if s >= cfg.MinSim {
				pairs = append(pairs, Pair{I: i, J: j, Sim: s})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Sim != pairs[b].Sim {
			return pairs[a].Sim > pairs[b].Sim
		}
		if pairs[a].I != pairs[b].I {
			return pairs[a].I < pairs[b].I
		}
		return pairs[a].J < pairs[b].J
	})
	if cfg.MaxPairs > 0 && len(pairs) > cfg.MaxPairs {
		pairs = pairs[:cfg.MaxPairs]
	}
	if len(pairs) == 0 {
		return nil, errors.New("er: blocking produced no candidate pairs; lower MinSim")
	}

	ds := &task.Dataset{Name: "EntityResolution"}
	domains := map[string]bool{}
	for tid, p := range pairs {
		a, b := records[p.I], records[p.J]
		truth := task.No
		if a.Entity != "" && a.Entity == b.Entity {
			truth = task.Yes
		}
		// Domain: the records' shared leading token, a cheap topical label
		// that groups related comparisons (like Table 1's product
		// families) for the similarity graph and reporting.
		dom := sharedPrefixToken(tokens[p.I], tokens[p.J])
		domains[dom] = true
		ds.Tasks = append(ds.Tasks, task.Task{
			ID:     tid,
			Domain: dom,
			Text:   fmt.Sprintf("Are %q and %q the same entity?", a.Text, b.Text),
			Tokens: unionTokens(tokens[p.I], tokens[p.J]),
			Truth:  truth,
		})
	}
	for d := range domains {
		ds.Domains = append(ds.Domains, d)
	}
	sort.Strings(ds.Domains)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return &Job{records: records, pairs: pairs, dataset: ds}, nil
}

// sharedPrefixToken returns the first token the two records share, or the
// first token of the first record.
func sharedPrefixToken(a, b []string) string {
	set := map[string]bool{}
	for _, t := range b {
		set[t] = true
	}
	for _, t := range a {
		if set[t] {
			return t
		}
	}
	return a[0]
}

func unionTokens(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range a {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range b {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Dataset returns the microtask dataset the crowd answers.
func (j *Job) Dataset() *task.Dataset { return j.dataset }

// Pairs returns the candidate pairs in microtask-ID order.
func (j *Job) Pairs() []Pair { return append([]Pair(nil), j.pairs...) }

// Records returns the input records.
func (j *Job) Records() []Record { return append([]Record(nil), j.records...) }

// Resolution is the outcome of a crowd run.
type Resolution struct {
	// Matches are the pairs the crowd judged duplicates.
	Matches []Pair
	// Clusters groups record indices by the transitive closure of the
	// matches; singleton clusters are included. Each cluster is sorted and
	// clusters are ordered by their smallest member.
	Clusters [][]int
}

// Resolve interprets a strategy's aggregated results: YES pairs become
// matches, and records are clustered by union-find over the matches
// (duplicate-of is treated as transitive, as in CrowdER).
func (j *Job) Resolve(s core.Strategy) *Resolution {
	results := s.Results()
	res := &Resolution{}
	parent := make([]int, len(j.records))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for tid, p := range j.pairs {
		if results[tid] == task.Yes {
			res.Matches = append(res.Matches, p)
			union(p.I, p.J)
		}
	}
	groups := map[int][]int{}
	for i := range j.records {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	for _, members := range groups {
		sort.Ints(members)
		res.Clusters = append(res.Clusters, members)
	}
	sort.Slice(res.Clusters, func(a, b int) bool {
		return res.Clusters[a][0] < res.Clusters[b][0]
	})
	return res
}

// Metrics are pairwise entity-resolution quality numbers against the
// records' ground-truth entity labels.
type Metrics struct {
	// Precision, Recall, F1 over all record pairs with known labels
	// (computed on the transitive closure, not just the asked pairs).
	Precision, Recall, F1 float64
	// TruePairs is the number of ground-truth duplicate pairs.
	TruePairs int
	// PredictedPairs is the number of same-cluster pairs predicted.
	PredictedPairs int
}

// Evaluate computes pairwise precision/recall of a resolution against the
// records' Entity labels. Records without labels are skipped.
func (j *Job) Evaluate(res *Resolution) Metrics {
	cluster := make([]int, len(j.records))
	for ci, members := range res.Clusters {
		for _, m := range members {
			cluster[m] = ci
		}
	}
	var tp, fp, fn int
	for i := range j.records {
		if j.records[i].Entity == "" {
			continue
		}
		for k := i + 1; k < len(j.records); k++ {
			if j.records[k].Entity == "" {
				continue
			}
			same := j.records[i].Entity == j.records[k].Entity
			pred := cluster[i] == cluster[k]
			switch {
			case same && pred:
				tp++
			case !same && pred:
				fp++
			case same && !pred:
				fn++
			}
		}
	}
	m := Metrics{TruePairs: tp + fn, PredictedPairs: tp + fp}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "precision=%.3f recall=%.3f f1=%.3f (true pairs %d, predicted %d)",
		m.Precision, m.Recall, m.F1, m.TruePairs, m.PredictedPairs)
	return sb.String()
}
