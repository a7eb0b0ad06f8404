// Package textsim implements the similarity measures of Section 3.3 and
// Appendix D.1: Jaccard over token sets, cosine over TF-IDF vectors, edit
// distance, and Euclidean similarity over feature vectors. The package also
// provides the tokenizer/stop-word pipeline the paper applies before
// computing textual similarity.
package textsim

import (
	"math"
	"slices"
	"strings"
	"unicode"
)

// stopwords is a compact English stop-word list; Appendix D.1 removes
// stop-words before measuring similarity.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "can": true, "did": true, "do": true, "does": true,
	"for": true, "from": true, "had": true, "has": true, "have": true,
	"he": true, "her": true, "his": true, "how": true, "i": true, "if": true,
	"in": true, "is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "she": true, "that": true, "the": true, "their": true,
	"them": true, "there": true, "they": true, "this": true, "to": true,
	"was": true, "we": true, "were": true, "what": true, "when": true,
	"where": true, "which": true, "who": true, "why": true, "will": true,
	"with": true, "you": true, "your": true,
}

// IsStopword reports whether the lowercase token is a stop-word.
func IsStopword(tok string) bool { return stopwords[tok] }

// Tokenize lowercases text, splits it on non-alphanumeric runes, and drops
// stop-words and empty tokens.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		if f != "" && !stopwords[f] {
			out = append(out, f)
		}
	}
	return out
}

// TokenSets is a corpus of token lists interned once into sorted,
// deduplicated term-ID sets, so scoring a pair is a merge intersection
// rather than two hash sets per pair.
type TokenSets struct {
	sets [][]int32
}

// NewTokenSets interns every document's tokens. Duplicate tokens within a
// document count once (set semantics).
func NewTokenSets(docs [][]string) *TokenSets {
	sets, _ := intern(docs)
	for i, ids := range sets {
		sets[i] = slices.Compact(ids)
	}
	return &TokenSets{sets: sets}
}

// Jaccard returns |A ∩ B| / |A ∪ B| over the token sets of documents i and
// j. Two empty sets have similarity 0.
func (s *TokenSets) Jaccard(i, j int) float64 {
	a, b := s.sets[i], s.sets[j]
	inter := 0
	for p, q := 0, 0; p < len(a) && q < len(b); {
		switch {
		case a[p] < b[q]:
			p++
		case a[p] > b[q]:
			q++
		default:
			inter++
			p++
			q++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// intern numbers the corpus's distinct tokens in first-seen order and
// returns each document's term IDs sorted ascending, duplicates kept,
// together with the vocabulary size. All documents share one backing
// array.
func intern(docs [][]string) (ids [][]int32, vocab int) {
	total := 0
	for _, d := range docs {
		total += len(d)
	}
	dict := make(map[string]int32)
	flat := make([]int32, 0, total)
	ids = make([][]int32, len(docs))
	for i, d := range docs {
		start := len(flat)
		for _, t := range d {
			id, ok := dict[t]
			if !ok {
				id = int32(len(dict))
				dict[t] = id
			}
			flat = append(flat, id)
		}
		doc := flat[start:len(flat):len(flat)]
		slices.Sort(doc)
		ids[i] = doc
	}
	return ids, len(dict)
}

// EditDistance returns the Levenshtein distance between two strings
// (unit insert/delete/substitute costs).
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditSimilarity normalizes edit distance to a similarity in [0, 1]:
// 1 - dist / max(len(a), len(b)). Two empty strings are fully similar.
func EditSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(EditDistance(a, b))/float64(m)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Euclidean returns the Euclidean distance between two equal-length feature
// vectors; it returns +Inf for mismatched lengths.
func Euclidean(x, y []float64) float64 {
	if len(x) != len(y) {
		return math.Inf(1)
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// EuclideanSimilarity normalizes Euclidean distance into a [0, 1] similarity
// as 1 - dist/maxDist (Section 3.3 case 2), clamping at 0. maxDist must be
// positive.
func EuclideanSimilarity(x, y []float64, maxDist float64) float64 {
	if maxDist <= 0 {
		return 0
	}
	d := Euclidean(x, y)
	if math.IsInf(d, 1) {
		return 0
	}
	sim := 1 - d/maxDist
	if sim < 0 {
		return 0
	}
	return sim
}

// CosineDense returns the cosine similarity of two equal-length dense
// vectors (used for LDA topic distributions); 0 for mismatched lengths or
// zero vectors.
func CosineDense(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// TFIDF builds a TF-IDF vector per document from the given token lists.
// TF is raw count; IDF is ln(N / df). Terms present in every document get
// IDF 0 and therefore vanish — exactly the behaviour wanted for the shared
// filler words in comparison microtasks ("which", "more", ...). Each vector
// is stored as (term ID, weight) pairs in ascending term order with its
// norm summed once in that order, so every similarity is reproducible to
// the last bit.
type TFIDF struct {
	docs  [][]termWeight
	norms []float64
}

type termWeight struct {
	id int32
	w  float64
}

// NewTFIDF computes the model over a corpus of tokenized documents.
func NewTFIDF(corpus [][]string) *TFIDF {
	ids, vocab := intern(corpus)
	df := make([]int, vocab)
	for _, doc := range ids {
		for k, id := range doc {
			if k == 0 || doc[k-1] != id {
				df[id]++
			}
		}
	}
	n := float64(len(corpus))
	idf := make([]float64, vocab)
	for id, d := range df {
		idf[id] = math.Log(n / float64(d))
	}
	m := &TFIDF{docs: make([][]termWeight, len(corpus)), norms: make([]float64, len(corpus))}
	for i, doc := range ids {
		var v []termWeight
		for k := 0; k < len(doc); {
			id := doc[k]
			var w float64
			for ; k < len(doc) && doc[k] == id; k++ {
				w += idf[id]
			}
			if w != 0 {
				v = append(v, termWeight{id, w})
			}
		}
		var ss float64
		for _, tw := range v {
			ss += tw.w * tw.w
		}
		m.docs[i], m.norms[i] = v, math.Sqrt(ss)
	}
	return m
}

// Similarity returns the cosine TF-IDF similarity of corpus documents i, j.
// A zero vector has similarity 0 with everything.
func (m *TFIDF) Similarity(i, j int) float64 {
	a, b := m.docs[i], m.docs[j]
	var dot float64
	for p, q := 0, 0; p < len(a) && q < len(b); {
		switch {
		case a[p].id < b[q].id:
			p++
		case a[p].id > b[q].id:
			q++
		default:
			dot += a[p].w * b[q].w
			p++
			q++
		}
	}
	if dot == 0 {
		return 0
	}
	return dot / (m.norms[i] * m.norms[j])
}
