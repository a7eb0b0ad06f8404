// Command bench is icrowd's end-to-end benchmark. It builds nothing itself
// (bench/run.sh builds it together with cmd/icrowd-server), spawns the
// server on loopback with a fresh data directory, and drives it with
// simulated crowds from internal/sim: every job is a fresh named project
// whose 53 workers ask for microtasks, answer from their latent accuracies
// and submit, until each has been refused once. See bench/README.md for
// the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload adaptive --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload all --out results.jsonl
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// The last line of standard output is the run's result as one JSON
// object. --trace 1 reruns the workload against the benchmark's own serve
// role with timing decorators and reports per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"icrowd/internal/experiments"
	"icrowd/internal/obsv"
	"icrowd/internal/platform"
	"icrowd/internal/sim"
	"icrowd/internal/task"
)

const (
	// setupRepeats is how many times an untraced run sets its server up;
	// setup_s is the median over the set-ups the hypervisor left alone.
	setupRepeats = 11
	// referenceJobs and referenceSeed define the reference pass every phase
	// runs before its measured window: that many jobs driven over one
	// connection from the same seed whatever the workload seed, so their
	// accuracy and answers per task are a function of the server's code
	// alone and repeat exactly from run to run. The pass is the output check
	// the quality metrics report, and the untimed warm-up of connections,
	// heaps and caches.
	referenceJobs = 1
	referenceSeed = 1
	// itemCompareSeed is the server's -seed: the dataset the benchmark
	// regenerates to score final answers against ground truth.
	itemCompareSeed = 1
)

// bench holds what every workload run shares.
type bench struct {
	binDir string // holds icrowd-server
	self   string // this executable, for the serve role
	work   string // per-run directories are created here
	// hc carries control traffic — readiness probes and metric scrapes —
	// outside the measured phases.
	hc *http.Client
	ds *task.Dataset
	// crowd is the paper's 53-worker ItemCompare crowd; every job starts
	// with all of it.
	crowd []sim.Profile
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	var (
		wname   = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "workload seed: which worker asks next, every answer and the arrival schedule of the measured window derive from it")
		seconds = flag.Int("seconds", 30, "measured seconds per phase")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		binDir  = flag.String("bin", "", "directory holding icrowd-server (set by run.sh)")
		work    = flag.String("work", "", "directory for per-run data (set by run.sh)")
		out     = flag.String("out", "", "append each run's record (result plus metadata) to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
		commit  = flag.String("commit", "unknown", "source revision recorded in each run's metadata (set by run.sh)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *binDir == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "bench: -bin and -work are required; run through bench/run.sh")
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var todo []workload
	if *wname == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*wname); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wname)
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	ds, crowd, err := experiments.LoadDataset(experiments.DatasetItemCompare, itemCompareSeed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	b := &bench{binDir: *binDir, self: self, work: *work, hc: &http.Client{Timeout: 10 * time.Second}, ds: ds, crowd: crowd}

	var results []result
	for _, w := range todo {
		res, meta, err := b.runWorkload(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		meta.Commit = *commit
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printResult(w, res, meta)
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, Meta: meta, Result: res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		results = append(results, res)
	}
	final := results[0]
	if len(todo) > 1 {
		final = combine(todo, results)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// combine folds the results of several workloads into one, prefixing each
// metric with its workload's name.
func combine(ws []workload, rs []result) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			out.Metrics[ws[i].name+"."+k] = v
		}
	}
	return out
}

// runMeta describes the conditions of one run.
type runMeta struct {
	Commit      string   `json:"commit"`
	GoVersion   string   `json:"goVersion"`
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Connections int      `json:"connections"`
	DataFS      string   `json:"dataFs"`
	Seconds     float64  `json:"seconds"`
	Processes   []string `json:"processes"`
	Notes       []string `json:"notes,omitempty"`
}

// record is one line of an -out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Meta     runMeta `json:"meta"`
	Result   result  `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the human-readable report of one workload run.
func printResult(w workload, res result, meta runMeta) {
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		v := res.Metrics[k]
		fmt.Printf("   %-34s %14.4f %s\n", k, v.Value, v.Unit)
	}
	for _, n := range meta.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	meta.Notes = nil // printed above
	m, err := json.Marshal(meta)
	if err == nil {
		fmt.Printf("   meta: %s\n", m)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runWorkload runs one workload: untraced, it sets the server up
// setupRepeats times, runs the reference pass and measures the end-to-end
// metrics; traced, it measures once against the shipped binary and once
// against the traced serve role and reports the per-layer metrics.
func (b *bench) runWorkload(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (result, runMeta, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), w.conns))
	dir := filepath.Join(b.work, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, runMeta{}, err
	}
	defer os.RemoveAll(dir)
	meta := runMeta{
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Connections: w.conns + 1, // the workers' and the requester's
		DataFS:      fsType(dir),
		Seconds:     d.Seconds(),
	}
	if traced {
		return b.runTraced(ctx, w, seed, d, dir, meta)
	}

	var setups, setupSteal []float64
	var s *server
	for i := 0; i < setupRepeats; i++ {
		before, err := readCPU()
		if err != nil {
			return result{}, meta, err
		}
		si, took, err := b.launch(ctx, w, false, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return result{}, meta, err
		}
		after, err := readCPU()
		if err != nil {
			si.stop()
			return result{}, meta, err
		}
		setups = append(setups, took.Seconds())
		setupSteal = append(setupSteal, stolen(before, after))
		if i < setupRepeats-1 {
			si.stop()
		} else {
			s = si
		}
	}
	defer s.stop()
	meta.Processes = []string{s.commandLine()}
	ph, err := b.measure(ctx, w, s, seed, d, nil)
	if err != nil {
		return result{}, meta, err
	}
	s.stop()
	var clean []float64
	for _, i := range cleanIndices(setupSteal) {
		clean = append(clean, setups[i])
	}
	_, setupS, _ := quartiles(clean)
	_, setupAll, _ := quartiles(setups)
	res, notes := ph.endToEnd(b.ds, setupS)
	meta.Notes = append(meta.Notes, fmt.Sprintf("setup_s is the median of the %d of %d set-ups with at most %.0f%% stolen (of all: %.4g)",
		len(clean), len(setups), 100*maxSteal, setupAll))
	meta.Notes = append(meta.Notes, notes...)
	return res, meta, nil
}

// phase is what one pass over a server observed: the reference pass and
// the measured window after it.
type phase struct {
	ref *recorder // the reference pass's operations (failures count)
	rec *recorder // the window's
	// scored are the reference pass's finished jobs, in order, which the
	// quality metrics cover.
	scored []jobResult
	// start is when the measured window opened; wall is its length.
	start time.Time
	wall  time.Duration
	// jobs is how many of the window's jobs finished; answers counts the
	// window's accepted submits, of finished jobs and unfinished ones.
	jobs    int
	answers int
	// cpu is the server's CPU time over the window. rssMB is its peak
	// resident set when the window opens: read later, it would grow with
	// the number of projects a faster server got through.
	cpu   time.Duration
	rssMB float64
	// before and after are the server's /v1/metrics around the window.
	before, after map[string]float64
	// slices cut the window into sliceLen stretches labelled with the CPU
	// time stolen in each; steal is the share stolen over the window.
	slices []slice
	steal  float64
}

// pooledClient returns a platform client whose keep-alive pool holds at
// most conns connections, and the function that closes them.
func pooledClient(url string, conns int) (*platform.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &platform.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr, Timeout: 10 * time.Second}}, tr.CloseIdleConnections
}

// measure runs the reference pass on the server, then w's traffic for d.
func (b *bench) measure(ctx context.Context, w workload, s *server, seed int64, d time.Duration, tracer *obsv.Tracer) (*phase, error) {
	client, closeClient := pooledClient(s.url, w.conns)
	defer closeClient()
	requester, closeRequester := pooledClient(s.url, 1)
	defer closeRequester()

	ph := &phase{ref: newRecorder(), rec: newRecorder()}
	ref := newRun(b.ds, b.crowd, client, requester, referenceSeed, "ref", ph.ref, referenceJobs)
	ref.closedLoop(ctx, 1, 0)
	for n := 0; n < referenceJobs; n++ {
		if res, ok := ref.outcomes[n]; ok {
			ph.scored = append(ph.scored, res)
		}
	}

	pid := s.cmd.Process.Pid
	cpu0, rss, err := procStat(pid)
	if err != nil {
		return nil, err
	}
	ph.rssMB = rss
	if ph.before, err = scrape(ctx, b.hc, s.proc); err != nil {
		return nil, err
	}
	r := newRun(b.ds, b.crowd, client, requester, mix(seed, 1), "job", ph.rec, 0)
	r.tracer = tracer
	sw := watchSteal()
	ph.start = time.Now()
	if w.roundRate > 0 {
		ph.wall = r.openLoop(ctx, w.conns, poisson(mix(seed, 2), w.roundRate, statusRate), d)
	} else {
		r.polls = true
		ph.wall = r.closedLoop(ctx, w.conns, d)
	}
	slices, steal, err := sw.finish()
	if err != nil {
		return nil, err
	}
	ph.slices, ph.steal = until(slices, ph.start.Add(ph.wall)), steal
	cpu1, _, err := procStat(pid)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.after, err = scrape(ctx, b.hc, s.proc); err != nil {
		return nil, err
	}
	r.mu.Lock()
	ph.jobs = len(r.outcomes)
	r.mu.Unlock()
	ph.rec.mu.Lock()
	ph.answers = len(ph.rec.answers)
	ph.rec.mu.Unlock()
	return ph, nil
}

// counts returns the operations a phase attempted and failed, reference
// pass included.
func (ph *phase) counts() (attempted, failed int) {
	for _, r := range []*recorder{ph.ref, ph.rec} {
		r.mu.Lock()
		attempted += r.attempted
		failed += r.failed
		r.mu.Unlock()
	}
	return attempted, failed
}

// validity checks a phase's outputs, and the sizes of the latency samples
// its metrics are computed from; each returned problem makes the run
// incorrect.
func (ph *phase) validity(ds *task.Dataset, samples [nOps][]float64) []string {
	var problems []string
	if _, failed := ph.counts(); failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed operations: %s %s", failed, ph.ref.failureSummary(), ph.rec.failureSummary()))
	}
	if len(ph.scored) < referenceJobs {
		problems = append(problems, fmt.Sprintf("the reference pass finished %d of its %d jobs", len(ph.scored), referenceJobs))
	}
	for op := 0; op < nOps; op++ {
		if n := len(samples[op]); beyond(n, tailPM) < minBeyond {
			problems = append(problems, fmt.Sprintf("%d %s samples leave %d beyond p%.0f, fewer than %d",
				n, opNames[op], beyond(n, tailPM), float64(tailPM)/10, minBeyond))
		}
	}
	if acc, _ := ph.quality(ds); acc < minAccuracy {
		problems = append(problems, fmt.Sprintf("accuracy %.4f is below %.2f", acc, minAccuracy))
	}
	return problems
}

// quality returns the accuracy of the final answers and the accepted
// answers per task over the reference pass's jobs.
func (ph *phase) quality(ds *task.Dataset) (accuracy, answersPerTask float64) {
	var correct, answers int
	for _, j := range ph.scored {
		correct += j.correct
		answers += j.answers
	}
	tasks := float64(len(ph.scored) * ds.Len())
	return float64(correct) / tasks, float64(answers) / tasks
}

// tailPM is the tail percentile the end-to-end metrics report, in
// thousandths. It is lower than the samples support on purpose: on a
// 2-vCPU shared virtual machine the host stalls the guest for
// milliseconds at a time, how often varies from minute to minute, and in
// the open loop every arrival during a stall queues behind it. Over ten
// runs the spread of p99 reached 60% and that of p95 96%, so those would
// judge the host, not the change.
const tailPM = 900

// minAccuracy is a floor on the share of correct final answers: majority
// votes of this crowd never fall near it, while answers scrambled between
// tasks land at chance (0.5).
const minAccuracy = 0.6

// endToEnd computes the end-to-end metrics of an untraced phase over the
// slices of its window that the hypervisor left alone (see steal.go).
func (ph *phase) endToEnd(ds *task.Dataset, setupS float64) (result, []string) {
	attempted, failed := ph.counts()
	kept := cleanSlices(ph.slices)
	var keptTime time.Duration
	for _, s := range kept {
		keptTime += s.hi.Sub(s.lo)
	}
	var samples [nOps][]float64
	for op := range samples {
		for i, t := range ph.rec.ends[op] {
			if inSlices(kept, t) {
				samples[op] = append(samples[op], ph.rec.lat[op][i])
			}
		}
	}
	answers := 0
	for _, t := range ph.rec.answers {
		if inSlices(kept, t) {
			answers++
		}
	}
	problems := ph.validity(ds, samples)
	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	lat := func(op, pm int) float64 { return percentile(sortedCopy(samples[op]), pm) }
	accuracy, apt := ph.quality(ds)
	vals := map[string]float64{
		"answers_per_s":    float64(answers) / keptTime.Seconds(),
		"assign_p50_ms":    lat(opAssign, 500),
		"assign_p90_ms":    lat(opAssign, tailPM),
		"submit_p50_ms":    lat(opSubmit, 500),
		"submit_p90_ms":    lat(opSubmit, tailPM),
		"status_p50_ms":    lat(opStatus, 500),
		"status_p90_ms":    lat(opStatus, tailPM),
		"answers_per_task": apt,
		"accuracy":         accuracy,
		"setup_s":          setupS,
		"server_rss_mb":    ph.rssMB,
	}
	for _, m := range endToEnd {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	notes := append([]string(nil), problems...)
	for i, j := range ph.scored {
		notes = append(notes, fmt.Sprintf("reference job %d: accuracy %.4f, answers per task %.3f",
			i, float64(j.correct)/float64(ds.Len()), float64(j.answers)/float64(ds.Len())))
	}
	whole := func(op int) float64 { return percentile(sortedCopy(ph.rec.lat[op]), 500) }
	notes = append(notes,
		fmt.Sprintf("window: %.2fs, %d answers, %d jobs finished; host steal %.1f%% of CPU time; kept %d of %d slices (%.1fs) with at most %.0f%% stolen",
			ph.wall.Seconds(), ph.answers, ph.jobs, 100*ph.steal, len(kept), len(ph.slices), keptTime.Seconds(), 100*maxSteal),
		fmt.Sprintf("kept samples: assign=%d submit=%d status=%d; over the whole window answers_per_s %.4g, assign_p50_ms %.4g, submit_p50_ms %.4g, status_p50_ms %.4g",
			len(samples[opAssign]), len(samples[opSubmit]), len(samples[opStatus]),
			float64(ph.answers)/ph.wall.Seconds(), whole(opAssign), whole(opSubmit), whole(opStatus)))
	if lag := percentile(sortedCopy(ph.rec.lags), 990); lag > 2 {
		notes = append(notes, fmt.Sprintf("generator lag p99 %.2fms exceeds 2ms: the open-loop schedule was not kept", lag))
	}
	return res, notes
}
