package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// Golden digests of the offline phase: the FNV-64a of every basis vector
// and every solve Result that BuildBasis produces under
// DefaultBasisConfig. They change only when some bit of the similarity
// graph or the PPR solve changes; a faster similarity kernel or push loop
// that claims identical output must leave them as they are.
const (
	goldenBasisItemCompare uint64 = 0xfab8dee6c60801ad
	goldenBasisYahooQA     uint64 = 0xd7a524622411bc32
)

// basisDigest hashes b: per task, its solve Result, then its vector's
// entries in ascending key order as (key, float64 bits).
func basisDigest(b *ppr.Basis) uint64 {
	h := fnv.New64a()
	for i := 0; i < b.N(); i++ {
		r := b.SolveResult(i)
		conv := uint64(0)
		if r.Converged {
			conv = 1
		}
		put(h, uint64(i), conv, math.Float64bits(r.Residual), uint64(r.Iters))
		v := b.Vec(i)
		keys := make([]int, 0, len(v))
		for j := range v {
			keys = append(keys, j)
		}
		sort.Ints(keys)
		put(h, uint64(len(keys)))
		for _, j := range keys {
			put(h, uint64(j), math.Float64bits(v[j]))
		}
	}
	return h.Sum64()
}

func put(h hash.Hash64, xs ...uint64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
}

// TestGoldenBasis pins the offline phase (similarity graph plus one PPR
// solve per microtask) bit for bit on both server datasets.
func TestGoldenBasis(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *task.Dataset
		want uint64
	}{
		{"ItemCompare", task.GenerateItemCompare(1), goldenBasisItemCompare},
		{"YahooQA", task.GenerateYahooQA(1), goldenBasisYahooQA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			basis, err := BuildBasis(tc.ds, DefaultBasisConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := basisDigest(basis); got != tc.want {
				t.Fatalf("basis digest %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestBuildBasisTFIDFDeterministic builds the basis twice under the
// Cos(tf-idf) measure: the two must be bit-identical, or a server
// restarted with -measure 'Cos(tf-idf)' could rebuild a different
// strategy than the one its event log was written under.
func TestBuildBasisTFIDFDeterministic(t *testing.T) {
	ds := task.GenerateItemCompare(1)
	bc := DefaultBasisConfig()
	bc.Measure = simgraph.MeasureTFIDF
	var digests [2]uint64
	for i := range digests {
		basis, err := BuildBasis(ds, bc)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = basisDigest(basis)
	}
	if digests[0] != digests[1] {
		t.Fatalf("two Cos(tf-idf) bases differ: %#x vs %#x", digests[0], digests[1])
	}
}
