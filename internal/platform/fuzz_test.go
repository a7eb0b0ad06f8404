package platform

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzParseSLOLatencySpec feeds arbitrary -slo-endpoint-latency values to
// the flag parser. An accepted spec must name only canonical endpoints with
// positive durations, and rendering it back as sorted name=duration pairs
// must re-parse to the same map. The seed corpus is under
// testdata/fuzz/FuzzParseSLOLatencySpec.
func FuzzParseSLOLatencySpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := ParseSLOLatencySpec(spec)
		if err != nil {
			return
		}
		pairs := make([]string, 0, len(got))
		for name, d := range got {
			if !slices.Contains(endpointNames, name) {
				t.Fatalf("%q accepted with unknown endpoint %q", spec, name)
			}
			if d <= 0 {
				t.Fatalf("%q accepted with non-positive latency %v for %s", spec, d, name)
			}
			pairs = append(pairs, name+"="+d.String())
		}
		sort.Strings(pairs)
		rendered := strings.Join(pairs, ",")
		back, err := ParseSLOLatencySpec(rendered)
		if err != nil {
			t.Fatalf("%q parsed to %v, whose rendering %q fails to re-parse: %v", spec, got, rendered, err)
		}
		if !maps.Equal(back, got) {
			t.Fatalf("%q parsed to %v, whose rendering %q re-parses to %v", spec, got, rendered, back)
		}
	})
}
