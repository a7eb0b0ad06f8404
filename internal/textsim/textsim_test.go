package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"icrowd/internal/task"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTokenize(t *testing.T) {
	got := Tokenize("Who first proposed Heliocentrism? The answer!")
	want := []string{"first", "proposed", "heliocentrism", "answer"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if len(Tokenize("the a an of")) != 0 {
		t.Fatal("stop-words should be removed")
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty text should yield no tokens")
	}
	got = Tokenize("iPhone-4 WiFi/32GB")
	want = []string{"iphone", "4", "wifi", "32gb"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize punctuation = %v, want %v", got, want)
	}
}

// Jaccard is the reference token-set similarity the interned kernel must
// reproduce bit for bit: two hash sets per pair, then the same
// intersection and union counts.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	setA := make(map[string]bool, len(a))
	for _, t := range a {
		setA[t] = true
	}
	setB := make(map[string]bool, len(b))
	for _, t := range b {
		setB[t] = true
	}
	inter := 0
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// pairJaccard scores one pair with both the reference and the kernel.
func pairJaccard(a, b []string) (ref, kernel float64) {
	return Jaccard(a, b), NewTokenSets([][]string{a, b}).Jaccard(0, 1)
}

func TestJaccardPaperExample(t *testing.T) {
	// The paper computes sim(t2, t7) = 4/7 from Table 1 token sets.
	ds := task.ProductMatching()
	ref, kernel := pairJaccard(ds.Tasks[1].Tokens, ds.Tasks[6].Tokens)
	for name, got := range map[string]float64{"reference": ref, "kernel": kernel} {
		if !almost(got, 4.0/7, 1e-12) {
			t.Fatalf("%s Jaccard(t2,t7) = %v, want 4/7", name, got)
		}
	}
}

func TestJaccardBasics(t *testing.T) {
	a := []string{"x", "y", "z"}
	cases := []struct {
		name string
		a, b []string
		want float64
	}{
		{"self", a, a, 1},
		{"disjoint", a, []string{"q"}, 0},
		{"empty", nil, nil, 0},
		{"one empty", a, nil, 0},
		// Duplicates are set semantics.
		{"multiset", []string{"x", "x", "y"}, []string{"x", "y", "y"}, 1},
	}
	for _, c := range cases {
		ref, kernel := pairJaccard(c.a, c.b)
		if ref != c.want || kernel != c.want {
			t.Fatalf("%s: reference %v, kernel %v, want %v", c.name, ref, kernel, c.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b []string) bool {
		sets := NewTokenSets([][]string{a, b})
		s := sets.Jaccard(0, 1)
		if s < 0 || s > 1 {
			return false
		}
		return s == sets.Jaccard(1, 0) // symmetry
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestJaccardKernelMatchesReference checks the interned merge kernel
// against the two-hash-set reference bit for bit: on every pair of both
// server datasets, and on random token lists with duplicates, empty lists
// and disjoint vocabularies.
func TestJaccardKernelMatchesReference(t *testing.T) {
	check := func(name string, docs [][]string) {
		t.Helper()
		sets := NewTokenSets(docs)
		for i := range docs {
			for j := range docs {
				want := Jaccard(docs[i], docs[j])
				if got := sets.Jaccard(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Jaccard(%d,%d) = %v, reference %v", name, i, j, got, want)
				}
			}
		}
	}
	for _, ds := range []*task.Dataset{task.GenerateItemCompare(1), task.GenerateYahooQA(1)} {
		docs := make([][]string, ds.Len())
		for i, tk := range ds.Tasks {
			docs[i] = tk.Tokens
		}
		check(ds.Name, docs)
	}
	rng := rand.New(rand.NewSource(1))
	docs := make([][]string, 200)
	for i := range docs {
		// A small shared vocabulary forces duplicates and overlaps; every
		// tenth list is empty and every seventh draws from a vocabulary of
		// its own, disjoint from all others.
		if i%10 == 0 {
			continue
		}
		n := 1 + rng.Intn(12)
		for k := 0; k < n; k++ {
			tok := fmt.Sprintf("t%d", rng.Intn(15))
			if i%7 == 0 {
				tok = fmt.Sprintf("d%d-%d", i, rng.Intn(5))
			}
			docs[i] = append(docs[i], tok)
		}
	}
	check("random", docs)
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Fatalf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	f := func(a, b string) bool {
		d := EditDistance(a, b)
		if d != EditDistance(b, a) { // symmetry
			return false
		}
		la, lb := len([]rune(a)), len([]rune(b))
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		hi := la
		if lb > hi {
			hi = lb
		}
		return d >= lo && d <= hi // standard Levenshtein bounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity("", ""); got != 1 {
		t.Fatalf("empty EditSimilarity = %v, want 1", got)
	}
	if got := EditSimilarity("abc", "abc"); got != 1 {
		t.Fatalf("equal EditSimilarity = %v, want 1", got)
	}
	if got := EditSimilarity("abc", "xyz"); got != 0 {
		t.Fatalf("disjoint EditSimilarity = %v, want 0", got)
	}
}

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); !almost(got, 5, 1e-12) {
		t.Fatalf("Euclidean = %v, want 5", got)
	}
	if !math.IsInf(Euclidean([]float64{1}, []float64{1, 2}), 1) {
		t.Fatal("mismatched lengths should be +Inf")
	}
}

func TestEuclideanSimilarity(t *testing.T) {
	x, y := []float64{0, 0}, []float64{3, 4}
	if got := EuclideanSimilarity(x, y, 10); !almost(got, 0.5, 1e-12) {
		t.Fatalf("EuclideanSimilarity = %v, want 0.5", got)
	}
	if got := EuclideanSimilarity(x, y, 2); got != 0 {
		t.Fatal("similarity beyond maxDist should clamp at 0")
	}
	if got := EuclideanSimilarity(x, y, 0); got != 0 {
		t.Fatal("non-positive maxDist should yield 0")
	}
	if got := EuclideanSimilarity([]float64{1}, []float64{1, 2}, 5); got != 0 {
		t.Fatal("mismatched lengths should yield 0")
	}
}

// Cosine is the map-based reference cosine over sparse term vectors that
// TFIDF.Similarity must match to 1e-12 (its sums run in map order, so it
// is not reproducible to the last bit).
func Cosine(a, b map[string]float64) float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var dot float64
	for t, va := range a {
		if vb, ok := b[t]; ok {
			dot += va * vb
		}
	}
	if dot == 0 {
		return 0
	}
	return dot / (norm(a) * norm(b))
}

func norm(v map[string]float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// refTFIDF builds the reference TF-IDF vectors as term-keyed maps.
func refTFIDF(corpus [][]string) []map[string]float64 {
	df := map[string]int{}
	for _, doc := range corpus {
		seen := map[string]bool{}
		for _, t := range doc {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	n := float64(len(corpus))
	vecs := make([]map[string]float64, len(corpus))
	for i, doc := range corpus {
		v := map[string]float64{}
		for _, t := range doc {
			v[t] += math.Log(n / float64(df[t]))
		}
		for t, x := range v {
			if x == 0 {
				delete(v, t)
			}
		}
		vecs[i] = v
	}
	return vecs
}

func TestCosine(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 1}
	b := map[string]float64{"x": 1, "y": 1}
	if got := Cosine(a, b); !almost(got, 1, 1e-12) {
		t.Fatalf("identical Cosine = %v, want 1", got)
	}
	c := map[string]float64{"z": 2}
	if got := Cosine(a, c); got != 0 {
		t.Fatalf("orthogonal Cosine = %v, want 0", got)
	}
	if got := Cosine(nil, a); got != 0 {
		t.Fatal("zero-vector Cosine should be 0")
	}
	d := map[string]float64{"x": 1}
	if got := Cosine(a, d); !almost(got, 1/math.Sqrt2, 1e-12) {
		t.Fatalf("Cosine = %v, want 1/sqrt2", got)
	}
}

func TestCosineDense(t *testing.T) {
	if got := CosineDense([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal dense = %v, want 0", got)
	}
	if got := CosineDense([]float64{2, 2}, []float64{1, 1}); !almost(got, 1, 1e-12) {
		t.Fatalf("parallel dense = %v, want 1", got)
	}
	if got := CosineDense([]float64{1}, []float64{1, 2}); got != 0 {
		t.Fatal("length mismatch should be 0")
	}
	if got := CosineDense([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Fatal("zero vector should be 0")
	}
}

func TestTFIDF(t *testing.T) {
	corpus := [][]string{
		{"iphone", "wifi", "common"},
		{"ipod", "touch", "common"},
		{"iphone", "case", "common"},
		{"common", "common"},
	}
	m := NewTFIDF(corpus)
	// "common" appears in every document: IDF 0, so it vanishes and docs
	// 0 and 1, which share nothing else, score 0.
	if m.Similarity(0, 1) != 0 {
		t.Fatalf("sim(0,1) = %v, want 0", m.Similarity(0, 1))
	}
	// Doc 3 holds only the ubiquitous term: a zero vector.
	if m.Similarity(0, 3) != 0 || m.Similarity(3, 3) != 0 {
		t.Fatal("a zero TF-IDF vector should score 0 with everything")
	}
	// Docs 0 and 2 share "iphone".
	if m.Similarity(0, 2) <= 0 {
		t.Fatalf("sim(0,2) = %v, want > 0", m.Similarity(0, 2))
	}
	if !almost(m.Similarity(0, 0), 1, 1e-12) {
		t.Fatalf("self sim = %v, want 1", m.Similarity(0, 0))
	}
}

// TestTFIDFMatchesReference compares every ItemCompare and YahooQA pair
// with the map-based reference to 1e-12, and checks that the kernel is
// symmetric bit for bit.
func TestTFIDFMatchesReference(t *testing.T) {
	for _, ds := range []*task.Dataset{task.GenerateItemCompare(1), task.GenerateYahooQA(1)} {
		corpus := make([][]string, ds.Len())
		for i, tk := range ds.Tasks {
			corpus[i] = tk.Tokens
		}
		m, ref := NewTFIDF(corpus), refTFIDF(corpus)
		for i := range corpus {
			for j := i; j < len(corpus); j++ {
				got := m.Similarity(i, j)
				if want := Cosine(ref[i], ref[j]); !almost(got, want, 1e-12) {
					t.Fatalf("%s: sim(%d,%d) = %v, reference %v", ds.Name, i, j, got, want)
				}
				if m.Similarity(j, i) != got {
					t.Fatalf("%s: sim(%d,%d) is not symmetric", ds.Name, i, j)
				}
			}
		}
	}
}

func TestTFIDFSeparatesDomains(t *testing.T) {
	// On the synthetic ItemCompare corpus, average intra-domain TF-IDF
	// similarity must exceed inter-domain similarity — this is the property
	// the whole similarity-graph approach rests on.
	ds := task.GenerateItemCompare(5)
	corpus := make([][]string, ds.Len())
	for i, tk := range ds.Tasks {
		corpus[i] = tk.Tokens
	}
	m := NewTFIDF(corpus)
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < ds.Len(); i += 7 {
		for j := i + 1; j < ds.Len(); j += 7 {
			s := m.Similarity(i, j)
			if ds.Tasks[i].Domain == ds.Tasks[j].Domain {
				intra += s
				nIntra++
			} else {
				inter += s
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 {
		t.Fatal("sampling produced no pairs")
	}
	if intra/float64(nIntra) <= inter/float64(nInter) {
		t.Fatalf("intra-domain sim %v not above inter-domain %v",
			intra/float64(nIntra), inter/float64(nInter))
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || IsStopword("iphone") {
		t.Fatal("IsStopword mismatch")
	}
}

func TestTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Tokenize(s)
		twice := Tokenize(strings.Join(once, " "))
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
