package obsv

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to the traceparent
// parser every router and shard request runs, and arbitrary request IDs to
// TraceIDFromString. The seed corpus is under
// testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		if sc, ok := ParseTraceparent(s); ok {
			if !sc.IsValid() {
				t.Fatalf("accepted %q as the invalid context %+v", s, sc)
			}
			back, ok := ParseTraceparent(sc.Traceparent())
			if !ok || back != sc {
				t.Fatalf("%q parsed to %+v, whose rendering %q re-parses to %+v (ok %v)",
					s, sc, sc.Traceparent(), back, ok)
			}
		}
		id := TraceIDFromString(s)
		if !id.IsValid() {
			t.Fatalf("TraceIDFromString(%q) is the invalid zero ID", s)
		}
		if again := TraceIDFromString(s); again != id {
			t.Fatalf("TraceIDFromString(%q) gave %s, then %s", s, id, again)
		}
		if back := TraceIDFromString(id.String()); back != id {
			t.Fatalf("TraceIDFromString(%q) = %s, but its rendering is adopted as %s", s, id, back)
		}
		if parsed, err := ParseTraceID(s); err == nil && parsed != id {
			t.Fatalf("well-formed ID %q coerced to %s, not adopted verbatim", s, id)
		}
	})
}
