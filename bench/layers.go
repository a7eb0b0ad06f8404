package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/store"
)

// errNoTrace reports a traced run whose processes left no spans.
var errNoTrace = errors.New("traced processes wrote no spans")

// replayLimit caps the events the store replay appends per run: at
// -fsync always each append waits for the disk, and a few thousand
// appends give stable percentiles.
const replayLimit = 4000

// runTraced measures w twice with the same seed: against the shipped
// binary (for the server's own instruments, CPU and the untraced latency)
// and against the traced serve role (for the spans). It reports the
// per-layer metrics.
func (b *bench) runTraced(ctx context.Context, w workload, seed int64, d time.Duration, dir string, meta runMeta) (result, runMeta, error) {
	plain, _, err := b.launch(ctx, w, false, filepath.Join(dir, "plain"))
	if err != nil {
		return result{}, meta, err
	}
	defer plain.stop()
	ph0, err := b.measure(ctx, w, plain, seed, d, nil)
	if err != nil {
		return result{}, meta, err
	}
	plain.stop()

	traced, _, err := b.launch(ctx, w, true, filepath.Join(dir, "traced"))
	if err != nil {
		return result{}, meta, err
	}
	defer traced.stop()
	meta.Processes = []string{plain.commandLine(), traced.commandLine()}
	ph1, err := b.measure(ctx, w, traced, seed, d, obsv.NewTracer(1))
	if err != nil {
		return result{}, meta, err
	}
	traced.stop()
	spans, err := readSpans(traced.traceFile)
	if err != nil {
		return result{}, meta, err
	}
	if len(spans) == 0 {
		return result{}, meta, errNoTrace
	}

	fsync, err := parseFsync(w.fsync)
	if err != nil {
		return result{}, meta, err
	}
	rp, err := replayStore(plain.dataDir, fsync, filepath.Join(dir, "replay"), replayLimit)
	if err != nil {
		return result{}, meta, err
	}

	vals, notes := layerMetrics(ph0, ph1, spans, rp)
	meta.Notes = append(meta.Notes, notes...)
	meta.Notes = append(meta.Notes, fmt.Sprintf(
		"store.* come from replaying %d events of this run's own project logs through store.Open(..., WithFsync(%d)).Append on %s; the server's own appends are not traced",
		len(rp.appends), fsync, meta.DataFS))
	a0, f0 := ph0.counts()
	a1, f1 := ph1.counts()
	problems := append(ph0.validity(b.ds, ph0.rec.lat), ph1.validity(b.ds, ph1.rec.lat)...)
	meta.Notes = append(meta.Notes, problems...)
	res := result{Correct: len(problems) == 0, Attempted: a0 + a1, Failed: f0 + f1, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, meta, nil
}

// replayed holds the timings of a store replay.
type replayed struct {
	opens   []float64 // ms per store.Open
	appends []float64 // µs per Append
}

// replayStore appends the events of every project log under dataDir to
// fresh logs under dir, opened with the workload's fsync policy on the
// same filesystem, timing each Open and Append, until limit appends.
func replayStore(dataDir string, fsync int, dir string, limit int) (replayed, error) {
	var rp replayed
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rp, err
	}
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		return rp, err
	}
	for _, ent := range ents {
		if len(rp.appends) >= limit {
			return rp, nil
		}
		events, err := store.ReadFile(filepath.Join(dataDir, ent.Name(), "events.log"))
		if err != nil || len(events) == 0 {
			continue // the default project's log stays empty
		}
		start := time.Now()
		be, _, err := store.Open(filepath.Join(dir, ent.Name()+".log"), store.WithFsync(fsync))
		if err != nil {
			return rp, err
		}
		rp.opens = append(rp.opens, msSince(start))
		for _, e := range events {
			if len(rp.appends) >= limit {
				break
			}
			start := time.Now()
			if _, err := be.Append(e); err != nil {
				be.Close()
				return rp, err
			}
			rp.appends = append(rp.appends, msSince(start)*1000)
		}
		if err := be.Close(); err != nil {
			return rp, err
		}
	}
	return rp, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// interval is a closed time range in Unix nanoseconds.
type interval struct{ lo, hi int64 }

// cover returns how much of [lo, hi] the union of ivs covers.
func cover(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total, end := int64(0), lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes splits one client request into the layers it crossed, in
// nanoseconds: the client span minus what the handler spans cover is the
// network (loopback, net/http, JSON); the handler spans minus the strategy
// spans are the platform; the strategy spans are core. Each is the time a
// layer's spans cover minus the time their children cover, so the layers
// add up to the client span whenever the server spans were found.
type selfTimes struct {
	matched           bool
	net, plat, coreNS int64
}

func splitRequest(cs clientSpan, handlers, strategy []interval) selfTimes {
	if len(handlers) == 0 {
		return selfTimes{}
	}
	lo, hi := cs.start.UnixNano(), cs.end.UnixNano()
	cH, cS := cover(handlers, lo, hi), cover(strategy, lo, hi)
	return selfTimes{matched: true, net: (hi - lo) - cH, plat: cH - cS, coreNS: cS}
}

// layerMetrics computes the per-layer metrics from the untraced phase ph0,
// the traced phase ph1 with the spans its server wrote, and the store
// replay.
func layerMetrics(ph0, ph1 *phase, spans []span, rp replayed) (map[string]float64, []string) {
	vals := map[string]float64{}
	lo := ph1.start.UnixNano()

	// Spans by trace, and the strategy-call statistics of the window.
	type bucket struct{ handlers, strategy []interval }
	byTrace := map[string]*bucket{}
	calls := map[string][]float64{} // span name -> µs
	var reqOK, basis, creates []float64
	for _, sp := range spans {
		if sp.Name == "ppr.basis_build" {
			basis = append(basis, float64(sp.Dur)/1e9)
			continue
		}
		if sp.Start < lo {
			continue // the reference pass
		}
		us := float64(sp.Dur) / 1e3
		if strings.HasPrefix(sp.Name, "core.") {
			calls[sp.Name] = append(calls[sp.Name], us)
			if sp.Name == "core.request_task" && sp.OK {
				reqOK = append(reqOK, us)
			}
		}
		if sp.Name == "platform.create" {
			creates = append(creates, us/1e3)
		}
		if sp.Trace == "" {
			continue
		}
		bk := byTrace[sp.Trace]
		if bk == nil {
			bk = &bucket{}
			byTrace[sp.Trace] = bk
		}
		iv := interval{sp.Start, sp.end()}
		switch {
		case strings.HasPrefix(sp.Name, "platform."):
			bk.handlers = append(bk.handlers, iv)
		case strings.HasPrefix(sp.Name, "core."):
			bk.strategy = append(bk.strategy, iv)
		}
	}

	p := func(xs []float64, pm int) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(sortedCopy(xs), pm)
	}
	rq := calls["core.request_task"]
	vals["core.request_task_calls"] = float64(len(rq))
	vals["core.request_task_p50_us"] = p(rq, 500)
	vals["core.request_task_p99_us"] = p(rq, 990)
	vals["core.request_task_busy_s"] = sum(rq) / 1e6
	if len(rq) > 0 {
		vals["core.request_task_ok_ratio"] = float64(len(reqOK)) / float64(len(rq))
	}
	sa := calls["core.submit_answer"]
	vals["core.submit_answer_p50_us"] = p(sa, 500)
	vals["core.submit_answer_p99_us"] = p(sa, 990)
	vals["core.submit_answer_busy_s"] = sum(sa) / 1e6
	vals["core.results_p50_us"] = p(calls["core.results"], 500)
	vals["core.new_p50_ms"] = p(calls["core.new"], 500) / 1e3
	vals["ppr.basis_build_s"] = p(basis, 500)
	vals["platform.create_p50_ms"] = p(creates, 500)

	vals["store.append_calls"] = float64(len(rp.appends))
	vals["store.append_p50_us"] = p(rp.appends, 500)
	vals["store.append_p99_us"] = p(rp.appends, 990)
	vals["store.append_busy_s"] = sum(rp.appends) / 1e6
	vals["store.open_p50_ms"] = p(rp.opens, 500)

	// Per-request self times of the traced phase.
	var net, plat [nOps][]float64
	var clientSum, layerSum float64
	var total [3]float64 // ns over all requests: net, platform, core
	unmatched := 0
	ph1.rec.mu.Lock()
	cspans := append([]clientSpan(nil), ph1.rec.spans...)
	ph1.rec.mu.Unlock()
	for _, cs := range cspans {
		dur := float64(cs.end.Sub(cs.start).Nanoseconds())
		clientSum += dur
		bk := byTrace[cs.trace.String()]
		if bk == nil {
			unmatched++
			continue
		}
		st := splitRequest(cs, bk.handlers, bk.strategy)
		if !st.matched {
			unmatched++
			continue
		}
		net[cs.op] = append(net[cs.op], float64(st.net)/1e3)
		plat[cs.op] = append(plat[cs.op], float64(st.plat)/1e3)
		for i, v := range []int64{st.net, st.plat, st.coreNS} {
			total[i] += float64(v)
			layerSum += float64(v)
		}
	}
	for op := 0; op < nOps; op++ {
		vals["net."+opNames[op]+"_p50_us"] = p(net[op], 500)
		vals["platform."+opNames[op]+"_self_p50_us"] = p(plat[op], 500)
	}
	vals["platform.assign_self_p99_us"] = p(plat[opAssign], 990)
	vals["platform.submit_self_p99_us"] = p(plat[opSubmit], 990)
	if n := float64(len(cspans)); n > 0 {
		vals["trace.client_mean_us"] = clientSum / n / 1e3
		vals["trace.layer_sum_mean_us"] = layerSum / n / 1e3
		vals["trace.residual_share"] = (clientSum - layerSum) / clientSum
	}

	// The shipped binary's own view, from the untraced phase.
	vals["server.cpu_s"] = ph0.cpu.Seconds()
	if ph0.answers > 0 {
		vals["server.cpu_us_per_answer"] = ph0.cpu.Seconds() * 1e6 / float64(ph0.answers)
	}
	delta := func(series string) float64 { return ph0.after[series] - ph0.before[series] }
	meanUS := func(name, labels string) float64 {
		n := delta(name + "_count" + labels)
		if n == 0 {
			return 0
		}
		return delta(name+"_sum"+labels) / n * 1e6
	}
	vals["server.http_assign_mean_us"] = meanUS("icrowd_http_request_seconds", `{endpoint="assign"}`)
	vals["server.http_submit_mean_us"] = meanUS("icrowd_http_request_seconds", `{endpoint="submit"}`)
	vals["server.scheme_recompute_mean_us"] = meanUS("icrowd_core_scheme_recompute_seconds", "")
	vals["bench.sched_lag_p99_ms"] = p(ph0.rec.lags, 990)

	var okAll0, okAll1 []float64
	for op := 0; op < nOps; op++ {
		okAll0 = append(okAll0, ph0.rec.okLat[op]...)
		okAll1 = append(okAll1, ph1.rec.okLat[op]...)
	}
	if m0 := mean(okAll0); m0 > 0 {
		vals["trace_overhead"] = mean(okAll1) / m0
	}

	n := float64(max(len(cspans), 1)) * 1e3
	notes := []string{fmt.Sprintf(
		"traced requests: %d (%d without server spans); client mean %.1fus = net %.1f + platform %.1f + core %.1f + residual %.1f (%.2f%%); trace_overhead %.3f",
		len(cspans), unmatched, vals["trace.client_mean_us"], total[0]/n, total[1]/n, total[2]/n,
		vals["trace.client_mean_us"]-vals["trace.layer_sum_mean_us"], 100*vals["trace.residual_share"], vals["trace_overhead"])}
	if lag := vals["bench.sched_lag_p99_ms"]; lag > 2 {
		notes = append(notes, fmt.Sprintf("generator lag p99 %.2fms exceeds 2ms: the open-loop schedule was not kept", lag))
	}
	return vals, notes
}
