package store

import (
	"bytes"
	"reflect"
	"testing"
)

// maxPrefixCheck bounds the clean logs whose every byte prefix
// FuzzReadTolerant re-reads, keeping each input's cost quadratic in a
// small size.
const maxPrefixCheck = 2048

// FuzzReadTolerant feeds arbitrary bytes to the tolerant log reader. The
// seed corpus is under testdata/fuzz/FuzzReadTolerant.
func FuzzReadTolerant(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := ReadTolerant(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("reading from memory failed: %v", err)
		}
		checkContiguous(t, events)

		var clean []byte
		for _, e := range events {
			clean = append(clean, framed(t, e)...)
		}
		back, tail, err := ReadTolerant(bytes.NewReader(clean))
		if err != nil || tail != nil || !reflect.DeepEqual(back, events) {
			t.Fatalf("re-framed events read back as %+v (tail %v, err %v), want %+v", back, tail, err, events)
		}
		if len(clean) > maxPrefixCheck {
			return
		}
		for n := 0; n <= len(clean); n++ {
			got, _, err := ReadTolerant(bytes.NewReader(clean[:n]))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) > len(events) || (len(got) > 0 && !reflect.DeepEqual(got, events[:len(got)])) {
				t.Fatalf("%d-byte prefix read as %+v, not a prefix of %+v", n, got, events)
			}
		}
	})
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot parser behind
// ReadSnapshot. The seed corpus is under testdata/fuzz/FuzzReadSnapshot.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := parseSnapshot(data)
		if err != nil {
			return
		}
		if len(events) > 0 && events[0].Seq != 1 {
			t.Fatalf("accepted snapshot starts at seq %d", events[0].Seq)
		}
		checkContiguous(t, events)
	})
}

// checkContiguous fails unless events run contiguously from a first seq
// of at least 1.
func checkContiguous(t *testing.T, events []Event) {
	t.Helper()
	for i, e := range events {
		if i == 0 && e.Seq < 1 {
			t.Fatalf("first event has seq %d", e.Seq)
		}
		if i > 0 && e.Seq != events[i-1].Seq+1 {
			t.Fatalf("seq %d follows %d", e.Seq, events[i-1].Seq)
		}
	}
}
