package experiments

import (
	"reflect"
	"testing"
)

func TestExtDriftRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	opt := fastOpt()
	opt.Repeats = 2
	res, err := ExtDrift(DatasetYahooQA, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"QF-Only", "Adapt"} {
		a := res.Acc[mode]["ALL"]
		if a <= 0.3 || a > 1 {
			t.Fatalf("%s accuracy %v implausible", mode, a)
		}
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
}

// TestApplyDriftDeterministic pins that the drifted pool depends only on
// its input: which weak domain an improving worker learns must not follow
// map iteration order, or the drift experiment's numbers change from run
// to run under a fixed seed.
func TestApplyDriftDeterministic(t *testing.T) {
	for _, name := range Datasets {
		ds, pool, err := LoadDataset(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := applyDrift(ds, pool, 100)
		for run := 0; run < 20; run++ {
			got := applyDrift(ds, pool, 100)
			for i := range want {
				if !reflect.DeepEqual(got[i].DriftTo, want[i].DriftTo) {
					t.Fatalf("%s worker %d: drift targets %v, then %v", name, i, want[i].DriftTo, got[i].DriftTo)
				}
			}
		}
	}
}
