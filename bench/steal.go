package main

import (
	"sort"
	"time"
)

// The benchmark runs on shared virtual machines, whose hypervisor now and
// then runs other guests on this guest's CPUs ("steal" in /proc/stat).
// While it does, the benchmark and the servers stop together, for a
// fraction of a second or for seconds on end. On a 2-vCPU machine whole
// runs lost 10-45% of their CPU time this way, and those runs read up to
// four times slower than the run before them: no bound on the program's
// speed survives that. So the end-to-end metrics are computed over the
// parts of a run the machine gave the benchmark in full. A measured
// window is cut into slices of sliceLen, each labelled with the share of
// CPU time stolen in it, and the latencies and answers of the clean
// slices are kept; set-ups are filtered the same way. The run notes give
// how many slices were kept and the unfiltered figures beside them.

// sliceLen is the length of the slices a measured window is cut into.
const sliceLen = time.Second

// maxSteal is the largest share of the machine's CPU time the hypervisor
// may take in a slice, or in a set-up, that still counts as clean.
const maxSteal = 0.02

// cpuReading is one reading of the machine-wide CPU time counters.
type cpuReading struct {
	at           time.Time
	total, steal int64 // clock ticks
}

func readCPU() (cpuReading, error) {
	total, steal, err := hostCPU()
	return cpuReading{at: time.Now(), total: total, steal: steal}, err
}

// stolen returns the share of CPU time stolen between readings a and b.
func stolen(a, b cpuReading) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// slice is one stretch of a measured window: the samples that completed
// in [lo, hi) and the share of CPU time stolen meanwhile.
type slice struct {
	lo, hi time.Time
	steal  float64
}

// stealWatch reads the CPU counters every sliceLen, from its start until
// finish.
type stealWatch struct {
	stop     chan struct{}
	done     chan struct{}
	readings []cpuReading
	err      error
}

func watchSteal() *stealWatch {
	sw := &stealWatch{stop: make(chan struct{}), done: make(chan struct{})}
	first, err := readCPU()
	if err != nil {
		sw.err = err
		close(sw.done)
		return sw
	}
	sw.readings = append(sw.readings, first)
	go func() {
		defer close(sw.done)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-sw.stop:
				return
			case <-tick.C:
				r, err := readCPU()
				if err != nil {
					sw.err = err
					return
				}
				sw.readings = append(sw.readings, r)
			}
		}
	}()
	return sw
}

// finish stops the watch, takes a last reading and returns the slices
// between consecutive readings and the share stolen over all of them.
func (sw *stealWatch) finish() ([]slice, float64, error) {
	select {
	case <-sw.done:
	default:
		close(sw.stop)
		<-sw.done
	}
	if sw.err != nil {
		return nil, 0, sw.err
	}
	last, err := readCPU()
	if err != nil {
		return nil, 0, err
	}
	rs := append(sw.readings, last)
	out := make([]slice, 0, len(rs)-1)
	for i := 1; i < len(rs); i++ {
		out = append(out, slice{lo: rs[i-1].at, hi: rs[i].at, steal: stolen(rs[i-1], rs[i])})
	}
	return out, stolen(rs[0], last), nil
}

// until returns the slices cut off at end: the last slice of a window ends
// when the load stopped, not when the requester's last job check returned.
func until(slices []slice, end time.Time) []slice {
	var out []slice
	for _, s := range slices {
		if !s.lo.Before(end) {
			break
		}
		if s.hi.After(end) {
			s.hi = end
		}
		out = append(out, s)
	}
	return out
}

// cleanIndices returns, in order, the indices of the shares at most
// maxSteal or, when fewer than a third of them are, of the third with the
// least steal: a run on a machine stolen from throughout still reports
// its least disturbed part.
func cleanIndices(steal []float64) []int {
	var out []int
	for i, s := range steal {
		if s <= maxSteal {
			out = append(out, i)
		}
	}
	if need := (len(steal) + 2) / 3; len(out) < need {
		idx := make([]int, len(steal))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
		out = append([]int(nil), idx[:need]...)
		sort.Ints(out)
	}
	return out
}

// cleanSlices returns the slices the end-to-end metrics cover.
func cleanSlices(all []slice) []slice {
	steal := make([]float64, len(all))
	for i, s := range all {
		steal[i] = s.steal
	}
	var out []slice
	for _, i := range cleanIndices(steal) {
		out = append(out, all[i])
	}
	return out
}

// inSlices reports whether t falls in one of the slices, which are in
// time order and do not overlap.
func inSlices(slices []slice, t time.Time) bool {
	j := sort.Search(len(slices), func(j int) bool { return slices[j].hi.After(t) })
	return j < len(slices) && !t.Before(slices[j].lo)
}
