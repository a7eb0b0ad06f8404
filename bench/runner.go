package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/platform"
	"icrowd/internal/sim"
	"icrowd/internal/task"
)

// The operations whose latency the benchmark reports.
const (
	opAssign = iota
	opSubmit
	opStatus
	nOps
)

var opNames = [nOps]string{"assign", "submit", "status"}

// failedLatencyMS stands in for the latency of a failed or refused request:
// it misses every latency limit, so failures show in the tail percentiles
// as well as in the failure count.
const failedLatencyMS = 1e9

// statusEvery is the requester's status-poll rate in the closed-loop
// windows (20/s, as in the open-loop schedule).
const statusEvery = 50 * time.Millisecond

// clientSpan is one traced request as the benchmark saw it.
type clientSpan struct {
	trace obsv.TraceID
	op    int
	start time.Time
	end   time.Time
}

// recorder collects what a run measures: per-operation latencies, failure
// counts, generator lag and, in traced runs, the client-side spans.
type recorder struct {
	mu        sync.Mutex
	lat       [nOps][]float64   // ms; failed operations count as failedLatencyMS
	ends      [nOps][]time.Time // when each lat sample completed
	okLat     [nOps][]float64   // ms; successful operations only
	answers   []time.Time       // when each accepted submit completed
	attempted int
	failed    int
	failures  map[string]int
	lags      []float64 // ms
	spans     []clientSpan
}

func newRecorder() *recorder { return &recorder{failures: map[string]int{}} }

// op records one attempted operation of kind op (or an untimed one, op < 0)
// that started at start and ended now with err.
func (r *recorder) op(op int, start time.Time, err error) {
	end := time.Now()
	ms := float64(end.Sub(start)) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.failures[failureClass(err)]++
		ms = failedLatencyMS
	} else if op >= 0 {
		r.okLat[op] = append(r.okLat[op], ms)
	}
	if op >= 0 {
		r.lat[op] = append(r.lat[op], ms)
		r.ends[op] = append(r.ends[op], end)
	}
}

// answered records an accepted submit.
func (r *recorder) answered() {
	r.mu.Lock()
	r.answers = append(r.answers, time.Now())
	r.mu.Unlock()
}

// fail records a failure that is not an HTTP operation (a failed job).
func (r *recorder) fail(reason string) {
	r.mu.Lock()
	r.attempted++
	r.failed++
	r.failures[reason]++
	r.mu.Unlock()
}

func (r *recorder) lag(d time.Duration) {
	r.mu.Lock()
	r.lags = append(r.lags, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

// failureClass buckets an operation error for the report: the HTTP status
// and typed code of an API error, or the transport error.
func failureClass(err error) string {
	var api *platform.APIError
	if errors.As(err, &api) {
		return fmt.Sprintf("HTTP %d %s", api.StatusCode, api.Code)
	}
	s := err.Error()
	if len(s) > 120 {
		s = s[:120]
	}
	return "transport: " + s
}

// failureSummary lists the failure classes, most frequent first.
func (r *recorder) failureSummary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var keys []string
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return r.failures[keys[i]] > r.failures[keys[j]] })
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d× %s", r.failures[k], k))
	}
	return strings.Join(parts, "; ")
}

// arrival is one scheduled operation of an open-loop run: a worker round
// (assign then submit) or a requester status poll.
type arrival struct {
	at     time.Duration // offset from the start of the run
	status bool
}

// maxExtension bounds how long a closed loop keeps going past its length
// while fewer than minJobs jobs have finished, so a run on a stalled host
// still ends in time.
const maxExtension = 60 * time.Second

// jobResult is a checked job's outcome.
type jobResult struct {
	correct, answers int
}

// run drives one phase of a workload (reference pass or measured window):
// a sequence of jobs, each a fresh named project served to the crowd, until
// stopped. The requester's work between jobs — checking a finished job and
// creating the next project — runs beside the workers' rounds, as a real
// requester's would: the next job's project is created while the current
// one runs, and its crowd starts the moment the current job ends.
type run struct {
	ds *task.Dataset
	// crowd is the worker pool every job starts with.
	crowd []sim.Profile
	// client carries the workers' rounds and the status polls; requester
	// carries project creation and job checks over a connection of its own,
	// so the requester's calls never wait for a worker's or hold one up.
	client    *platform.Client
	requester *platform.Client
	seed      int64  // job seeds derive from it
	prefix    string // project ids are prefix + job index
	rec       *recorder
	// tracer mints the trace context stamped on each request in a traced
	// run (nil when untraced).
	tracer *obsv.Tracer
	// minJobs is how many jobs must have finished before a closed loop may
	// stop.
	minJobs int
	// polls makes a closed loop poll the live project's status every
	// statusEvery.
	polls bool

	// background tracks the requester's checks and project creations.
	background sync.WaitGroup

	mu    sync.Mutex // guards the fields below
	ready *sync.Cond // broadcast when next is set or the run stops
	cur   *job
	next  *job // the pre-created successor of cur, nil until ready
	njobs int
	// windowUp is set when the measured time is up; the run stops once
	// minJobs jobs have finished too.
	windowUp   bool
	stopping   bool
	nextStatus time.Time
	// outcomes holds each finished job's result by job number.
	outcomes   map[int]jobResult
	failedJobs int
}

func newRun(ds *task.Dataset, crowd []sim.Profile, client, requester *platform.Client, seed int64, prefix string, rec *recorder, minJobs int) *run {
	r := &run{ds: ds, crowd: crowd, client: client, requester: requester, seed: seed, prefix: prefix, rec: rec, minJobs: minJobs, outcomes: map[int]jobResult{}}
	r.ready = sync.NewCond(&r.mu)
	return r
}

// call runs one HTTP operation, stamping a fresh trace context on it in a
// traced run, and records its outcome with latency charged from charge
// (the scheduled send time in an open loop, the actual send otherwise).
func (r *run) call(ctx context.Context, op int, charge time.Time, f func(context.Context) error) error {
	var sp *obsv.Span
	if r.tracer != nil {
		sp = r.tracer.Start("bench." + opNames[op])
		ctx = obsv.ContextWithSpan(ctx, sp)
	}
	start := time.Now()
	if charge.IsZero() {
		charge = start
	}
	err := f(ctx)
	r.rec.op(op, charge, err)
	if sp != nil && err == nil {
		r.rec.mu.Lock()
		r.rec.spans = append(r.rec.spans, clientSpan{trace: sp.TraceID(), op: op, start: start, end: time.Now()})
		r.rec.mu.Unlock()
	}
	return err
}

// round is one worker round: ask for a task, answer it from the worker's
// latent accuracy, submit. It reports whether the worker retires: when
// the server refuses it a task, or when an operation fails.
func (r *run) round(ctx context.Context, j *job, w *worker, due time.Time) bool {
	var res platform.AssignResponse
	err := r.call(ctx, opAssign, due, func(ctx context.Context) (err error) {
		res, err = j.client.Assign(ctx, w.prof.ID)
		return err
	})
	if err != nil || !res.Assigned {
		return true
	}
	if res.TaskID < 0 || res.TaskID >= r.ds.Len() {
		r.rec.fail(fmt.Sprintf("assign returned unknown task %d", res.TaskID))
		return true
	}
	ans := sim.Answer(w.prof, &r.ds.Tasks[res.TaskID], w.rng)
	var sub platform.SubmitResponse
	err = r.call(ctx, opSubmit, time.Time{}, func(ctx context.Context) (err error) {
		sub, err = j.client.SubmitR(ctx, w.prof.ID, res.TaskID, ans)
		return err
	})
	if err != nil {
		return true
	}
	if !sub.Accepted || sub.Duplicate {
		r.rec.fail("submit not accepted as a new answer")
		return true
	}
	r.rec.answered()
	j.mu.Lock()
	j.accepted++
	j.mu.Unlock()
	return false
}

// status is one requester poll of the live project.
func (r *run) status(ctx context.Context, j *job, due time.Time) {
	r.call(ctx, opStatus, due, func(ctx context.Context) error { //nolint:errcheck // recorded by call
		_, err := j.client.Status(ctx)
		return err
	})
}

// createJob creates job n's project and crowd.
func (r *run) createJob(ctx context.Context, n int) (*job, error) {
	id := fmt.Sprintf("%s%d", r.prefix, n)
	pc := r.requester.Project(id)
	start := time.Now()
	_, err := pc.Create(ctx)
	r.rec.op(-1, start, err)
	if err != nil {
		return nil, err
	}
	j := newJob(id, r.client.Project(id), r.crowd, mix(r.seed, int64(n)))
	j.n, j.check = n, pc
	return j, nil
}

// prepare creates the successor of the current job in the background.
// Caller holds r.mu.
func (r *run) prepare(ctx context.Context) {
	n := r.njobs
	r.njobs++
	r.background.Add(1)
	go func() {
		defer r.background.Done()
		j, err := r.createJob(ctx, n)
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil {
			r.haltLocked()
			return
		}
		r.next = j
		r.ready.Broadcast()
	}()
}

// current returns the live job, creating the first one (and preparing its
// successor) on first use.
func (r *run) current(ctx context.Context) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil && !r.stopping && r.njobs == 0 {
		r.njobs++
		j, err := r.createJob(ctx, 0)
		if err != nil {
			r.haltLocked()
			return nil
		}
		r.cur = j
		r.prepare(ctx)
	}
	return r.cur
}

// advance is called when acquire on j returned nil. If j ended because its
// whole crowd retired, the first caller hands the crowd over to the
// prepared successor and checks j in the background; every caller gets
// the job to continue with, or nil once the run is stopping.
func (r *run) advance(ctx context.Context, j *job) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.stopping {
			return nil
		}
		if r.cur != j {
			return r.cur
		}
		if r.next != nil {
			break
		}
		r.ready.Wait()
	}
	r.cur, r.next = r.next, nil
	r.prepare(ctx)
	r.background.Add(1)
	go func() {
		defer r.background.Done()
		r.finish(ctx, j)
	}()
	return r.cur
}

// finish checks an ended job against the job-end rule and records it.
func (r *run) finish(ctx context.Context, j *job) {
	out := checkJob(ctx, j.check, r.ds)
	if !out.ok {
		r.rec.fail("job " + j.id + ": " + out.reason)
	} else {
		r.rec.op(-1, time.Now(), nil)
	}
	j.mu.Lock()
	answers := j.accepted
	j.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if out.ok {
		r.outcomes[j.n] = jobResult{correct: out.correct, answers: answers}
	} else {
		r.failedJobs++
	}
	r.maybeStopLocked()
}

// timeUp closes the measured window; the run stops now, or as soon as
// enough jobs have finished.
func (r *run) timeUp() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.windowUp = true
	r.maybeStopLocked()
}

// enoughLocked reports whether the run may stop on account of its jobs:
// minJobs have finished, or one has failed.
func (r *run) enoughLocked() bool {
	return len(r.outcomes) >= r.minJobs || r.failedJobs > 0
}

func (r *run) maybeStopLocked() {
	if r.windowUp && r.enoughLocked() {
		r.haltLocked()
	}
}

// halt stops the run: no job starts and every waiting acquire returns.
func (r *run) halt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.haltLocked()
}

func (r *run) haltLocked() {
	r.stopping = true
	if r.cur != nil {
		r.cur.stop()
	}
	r.ready.Broadcast()
}

// statusDue reports whether a closed-loop status poll is due now, claiming
// the slot when it is.
func (r *run) statusDue() bool {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if now.Before(r.nextStatus) {
		return false
	}
	r.nextStatus = r.nextStatus.Add(statusEvery)
	if r.nextStatus.Before(now) {
		r.nextStatus = now.Add(statusEvery)
	}
	return true
}

// closedLoop runs conns connections, each sending its next request only
// after the previous one completed, for d (longer if fewer than minJobs
// jobs have finished by then).
func (r *run) closedLoop(ctx context.Context, conns int, d time.Duration) time.Duration {
	start := time.Now()
	r.mu.Lock()
	r.nextStatus = start
	r.mu.Unlock()
	timer := time.AfterFunc(d, r.timeUp)
	limit := time.AfterFunc(d+maxExtension, r.halt)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := r.current(ctx)
			for j != nil {
				if r.polls && r.statusDue() {
					r.status(ctx, j, time.Time{})
				}
				w := j.acquire()
				if w == nil {
					j = r.advance(ctx, j)
					continue
				}
				j.release(w, r.round(ctx, j, w, time.Time{}))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	timer.Stop()
	limit.Stop()
	r.background.Wait()
	return elapsed
}

// poisson returns a generator of Poisson arrivals: worker rounds at
// roundRate/s merged with status polls at statusRate/s.
func poisson(seed int64, roundRate, statusRate float64) func() arrival {
	rng := rand.New(rand.NewSource(seed))
	total := roundRate + statusRate
	t := 0.0
	return func() arrival {
		t += rng.ExpFloat64() / total
		return arrival{at: time.Duration(t * float64(time.Second)), status: rng.Float64()*total < statusRate}
	}
}

// dispatch is the open-loop generator: it hands each arrival next yields
// to one of conns senders at its scheduled offset from now, whether or not
// the senders are keeping up, until next reports the schedule is over.
// Arrivals wait in a backlog while every sender is busy; send receives the
// time each was due, so latency charged from it includes that wait. lag
// receives how late the generator itself handed each arrival over.
func dispatch(next func() (arrival, bool), conns int, lag func(time.Duration), send func(a arrival, due time.Time)) {
	type due struct {
		a  arrival
		at time.Time
	}
	// The backlog is large enough that the generator practically never
	// waits for a sender: a full buffer would stall the schedule and hide
	// the queueing an open loop exists to show.
	backlog := make(chan due, 1<<16)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range backlog {
				send(d.a, d.at)
			}
		}()
	}
	start := time.Now()
	for {
		a, ok := next()
		if !ok {
			break
		}
		at := start.Add(a.at)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		lag(time.Since(at))
		backlog <- due{a, at}
	}
	close(backlog)
	wg.Wait()
}

// openLoop sends Poisson arrivals over conns connections for d, however
// fast the server answers; a stalled request inflates the ones queued
// behind it.
func (r *run) openLoop(ctx context.Context, conns int, next func() arrival, d time.Duration) time.Duration {
	start := time.Now()
	until := func() (arrival, bool) {
		a := next()
		r.mu.Lock()
		defer r.mu.Unlock()
		return a, !r.stopping && a.at < d
	}
	dispatch(until, conns, r.rec.lag, func(a arrival, due time.Time) {
		j := r.current(ctx)
		if j == nil {
			return // the run could not start a job; drain the schedule
		}
		if a.status {
			r.status(ctx, j, due)
			return
		}
		for j != nil {
			w := j.acquire()
			if w == nil {
				j = r.advance(ctx, j)
				continue
			}
			j.release(w, r.round(ctx, j, w, due))
			return
		}
	})
	elapsed := time.Since(start)
	r.halt()
	r.background.Wait()
	return elapsed
}
