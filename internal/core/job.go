// Package core implements the iCrowd framework of Figure 1: the Strategy
// interface every approach (iCrowd and the baselines) exposes to the crowd
// simulator and to the AMT-style platform, the shared crowdsourcing job
// bookkeeping (assignments, votes, consensus), and the adaptive iCrowd
// strategy itself wiring together the Warm-Up component (Section 5), the
// Accuracy Estimator (Section 3) and the Microtask Assigner (Section 4).
package core

import (
	"errors"
	"fmt"
	"slices"

	"icrowd/internal/aggregate"
	"icrowd/internal/task"
)

// Strategy is the contract between an assignment approach and the crowd:
// workers request tasks and submit answers one at a time, exactly like the
// request/submit loop of the AMT ExternalQuestion integration (Appendix A).
type Strategy interface {
	// Name identifies the approach (e.g. "iCrowd", "RandomMV").
	Name() string
	// RequestTask picks the next microtask for the requesting worker.
	// ok is false when the strategy has nothing for this worker (all tasks
	// completed, worker rejected, or worker already holds a task).
	RequestTask(worker string) (taskID int, ok bool)
	// SubmitAnswer records the worker's answer to their pending task.
	SubmitAnswer(worker string, taskID int, ans task.Answer) error
	// WorkerInactive tells the strategy a worker left; any pending
	// assignment is released so remaining tasks cannot deadlock.
	WorkerInactive(worker string)
	// Done reports whether every microtask is globally completed.
	Done() bool
	// Results returns the aggregated answer per task (the approach's own
	// aggregation scheme: MV, EM, or probabilistic verification).
	Results() map[int]task.Answer
}

// ErrNoPending reports a submission for a task the worker does not hold.
var ErrNoPending = errors.New("core: worker has no pending assignment for task")

// ErrBusy reports an assignment to a worker already holding a task.
var ErrBusy = errors.New("core: worker already holds an assignment")

// Job tracks the shared crowdsourcing state: who is assigned what, the votes
// per microtask, and which tasks reached consensus. All strategies reuse it.
//
// State is slice-indexed: each task keeps its consensus, votes, regular
// holders and the short list of workers who touched it, and workers are
// interned to dense indices whose slots name the task they hold. Storage
// follows assignments, not workers x tasks, and the hot reads (Capacity,
// TouchedIndex, Completed) are a slice index plus a scan of a few entries.
type Job struct {
	ds   *task.Dataset
	k    int
	need int // votes on one side required for consensus

	index        map[string]int32 // worker ID -> interned index
	names        []string         // interned index -> worker ID
	slots        []workerSlots    // interned index -> held assignments
	tasks        []taskState
	numCompleted int
}

// workerSlots are the tasks a worker holds, -1 for none. At most one of
// them is set: a worker holds one assignment at a time.
type workerSlots struct {
	regular int
	// test is a Step-3 / Section-5 test assignment: its answer only
	// estimates the worker's accuracy and never counts toward the k-vote
	// consensus, honoring the Step-2 constraint that a microtask is
	// assigned to at most its available assignment size.
	test int
}

type taskState struct {
	completed bool
	consensus task.Answer
	votes     []aggregate.Vote
	holders   []int32 // workers holding a regular assignment on the task
	// touched holds every worker who voted on, test-answered or holds the
	// task (regular or test): the paper's W^d(t) extended with test
	// exposure, so no worker ever sees the same microtask twice.
	touched []int32
}

// NewJob creates bookkeeping for assigning ds with assignment size k.
// The paper uses odd k so majority voting cannot tie; even k is accepted
// and ties resolve to NO.
func NewJob(ds *task.Dataset, k int) (*Job, error) {
	if k < 1 {
		return nil, errors.New("core: assignment size must be >= 1")
	}
	return &Job{
		ds:    ds,
		k:     k,
		need:  k/2 + 1,
		index: map[string]int32{},
		tasks: make([]taskState, ds.Len()),
	}, nil
}

// Dataset returns the job's dataset.
func (j *Job) Dataset() *task.Dataset { return j.ds }

// K returns the assignment size.
func (j *Job) K() int { return j.k }

func (j *Job) inRange(taskID int) bool { return taskID >= 0 && taskID < len(j.tasks) }

// WorkerIndex returns the interned index of a worker the job has assigned
// a task to at least once.
func (j *Job) WorkerIndex(worker string) (int32, bool) {
	wi, ok := j.index[worker]
	return wi, ok
}

// Capacity returns the number of additional workers taskID can take:
// k minus collected votes minus outstanding assignments. Completed tasks
// have zero capacity; an ID outside the dataset has no votes or holders.
func (j *Job) Capacity(taskID int) int {
	if !j.inRange(taskID) {
		return j.k
	}
	ts := &j.tasks[taskID]
	if ts.completed {
		return 0
	}
	return max(j.k-len(ts.votes)-len(ts.holders), 0)
}

// Touched reports whether the worker has voted on, test-answered, or
// currently holds taskID (i.e. is in the paper's W^d(t), extended with test
// exposure so no worker ever sees the same microtask twice).
func (j *Job) Touched(worker string, taskID int) bool {
	wi, ok := j.index[worker]
	return ok && j.TouchedIndex(wi, taskID)
}

// TouchedIndex is Touched for the worker with interned index wi (see
// WorkerIndex).
func (j *Job) TouchedIndex(wi int32, taskID int) bool {
	return j.inRange(taskID) && slices.Contains(j.tasks[taskID].touched, wi)
}

// Pending returns the task the worker currently holds (regular or test).
func (j *Job) Pending(worker string) (int, bool) {
	wi, ok := j.index[worker]
	if !ok {
		return 0, false
	}
	switch s := j.slots[wi]; {
	case s.regular >= 0:
		return s.regular, true
	case s.test >= 0:
		return s.test, true
	}
	return 0, false
}

// PendingTest reports whether the worker's pending assignment on taskID is
// a test assignment.
func (j *Job) PendingTest(worker string, taskID int) bool {
	wi, ok := j.index[worker]
	return ok && taskID >= 0 && j.slots[wi].test == taskID
}

// PendingWorkers returns the workers currently holding taskID, sorted.
func (j *Job) PendingWorkers(taskID int) []string {
	if !j.inRange(taskID) {
		return []string{}
	}
	holders := j.tasks[taskID].holders
	out := make([]string, len(holders))
	for i, wi := range holders {
		out[i] = j.names[wi]
	}
	slices.Sort(out)
	return out
}

// Assign hands taskID to the worker as a regular (consensus-counting)
// assignment. It enforces the one-task-at-a-time rule and the no-repeat
// rule; completed tasks cannot take regular assignments. It does not check
// Capacity: callers hand out a task only while Capacity(taskID) > 0.
func (j *Job) Assign(worker string, taskID int) error {
	wi, err := j.assignable(worker, taskID)
	if err != nil {
		return err
	}
	ts := &j.tasks[taskID]
	if ts.completed {
		return fmt.Errorf("core: task %d already completed", taskID)
	}
	wi = j.intern(worker, wi)
	j.slots[wi].regular = taskID
	ts.holders = append(ts.holders, wi)
	ts.touched = append(ts.touched, wi)
	return nil
}

// AssignTest hands taskID to the worker as a test assignment: the answer is
// used only for accuracy estimation and never counts toward consensus.
// Unlike Assign, completed tasks are allowed (they are the preferred test
// targets — their consensus grades the answer immediately).
func (j *Job) AssignTest(worker string, taskID int) error {
	wi, err := j.assignable(worker, taskID)
	if err != nil {
		return err
	}
	wi = j.intern(worker, wi)
	j.slots[wi].test = taskID
	j.tasks[taskID].touched = append(j.tasks[taskID].touched, wi)
	return nil
}

// assignable checks the rules shared by Assign and AssignTest and returns
// the worker's interned index, -1 for a worker the job has not seen.
func (j *Job) assignable(worker string, taskID int) (int32, error) {
	if !j.inRange(taskID) {
		return -1, fmt.Errorf("core: task %d out of range", taskID)
	}
	wi, ok := j.index[worker]
	if !ok {
		return -1, nil
	}
	if s := j.slots[wi]; s.regular >= 0 || s.test >= 0 {
		return wi, ErrBusy
	}
	if j.TouchedIndex(wi, taskID) {
		return wi, fmt.Errorf("core: worker %s already touched task %d", worker, taskID)
	}
	return wi, nil
}

// intern returns wi, registering the worker first when wi is -1.
func (j *Job) intern(worker string, wi int32) int32 {
	if wi >= 0 {
		return wi
	}
	wi = int32(len(j.names))
	j.index[worker] = wi
	j.names = append(j.names, worker)
	j.slots = append(j.slots, workerSlots{regular: -1, test: -1})
	return wi
}

// without removes wi from list, whose order does not matter.
func without(list []int32, wi int32) []int32 {
	if i := slices.Index(list, wi); i >= 0 {
		list[i] = list[len(list)-1]
		list = list[:len(list)-1]
	}
	return list
}

// Release drops the worker's pending assignment (worker became inactive).
func (j *Job) Release(worker string) {
	wi, ok := j.index[worker]
	if !ok {
		return
	}
	s := &j.slots[wi]
	if s.regular >= 0 {
		ts := &j.tasks[s.regular]
		ts.holders = without(ts.holders, wi)
		ts.touched = without(ts.touched, wi)
		s.regular = -1
	}
	if s.test >= 0 {
		ts := &j.tasks[s.test]
		ts.touched = without(ts.touched, wi)
		s.test = -1
	}
}

// Submit records the worker's answer for their pending task. It returns
// whether the task just reached global completion and, if so, the consensus
// answer.
func (j *Job) Submit(worker string, taskID int, ans task.Answer) (completedNow bool, consensus task.Answer, err error) {
	if ans != task.Yes && ans != task.No {
		return false, task.None, errors.New("core: answer must be YES or NO")
	}
	wi, ok := j.index[worker]
	if !ok || taskID < 0 {
		return false, task.None, ErrNoPending
	}
	s := &j.slots[wi]
	// Test submissions: the worker stays touched; the vote never enters
	// the consensus tally.
	if s.test == taskID {
		s.test = -1
		return false, task.None, nil
	}
	if s.regular != taskID {
		return false, task.None, ErrNoPending
	}
	s.regular = -1
	ts := &j.tasks[taskID]
	ts.holders = without(ts.holders, wi)
	ts.votes = append(ts.votes, aggregate.Vote{Worker: worker, Answer: ans})

	if ts.completed {
		// Late vote on an already-consensused task (possible when a test
		// assignment was outstanding at completion time); keep the vote,
		// no state change.
		return false, task.None, nil
	}
	var yes, no int
	for _, v := range ts.votes {
		if v.Answer == task.Yes {
			yes++
		} else {
			no++
		}
	}
	switch {
	case yes >= j.need:
		consensus = task.Yes
	case no >= j.need:
		consensus = task.No
	case yes+no >= j.k:
		// Even k exact tie: resolve to NO deterministically.
		consensus = task.No
	default:
		return false, task.None, nil
	}
	j.complete(taskID, consensus)
	return true, consensus, nil
}

func (j *Job) complete(taskID int, ans task.Answer) {
	ts := &j.tasks[taskID]
	if !ts.completed {
		ts.completed = true
		j.numCompleted++
	}
	ts.consensus = ans
}

// ForceComplete marks taskID globally completed with the given answer
// without any votes. The framework uses it to seed qualification microtasks,
// whose results come from requester ground truth (Section 5).
func (j *Job) ForceComplete(taskID int, ans task.Answer) {
	if j.inRange(taskID) {
		j.complete(taskID, ans)
	}
}

// Votes returns the votes collected for taskID (shared slice; do not
// mutate).
func (j *Job) Votes(taskID int) []aggregate.Vote {
	if !j.inRange(taskID) {
		return nil
	}
	return j.tasks[taskID].votes
}

// AllVotes returns a copy of the vote table keyed by task; tasks without
// votes have no entry.
func (j *Job) AllVotes() map[int][]aggregate.Vote {
	out := map[int][]aggregate.Vote{}
	for t := range j.tasks {
		if vs := j.tasks[t].votes; len(vs) > 0 {
			out[t] = slices.Clone(vs)
		}
	}
	return out
}

// Completed returns the consensus answer of taskID, if reached.
func (j *Job) Completed(taskID int) (task.Answer, bool) {
	if !j.inRange(taskID) {
		return task.No, false
	}
	ts := &j.tasks[taskID]
	return ts.consensus, ts.completed
}

// NumCompleted returns the number of globally completed tasks.
func (j *Job) NumCompleted() int { return j.numCompleted }

// Done reports whether every task reached consensus.
func (j *Job) Done() bool { return j.numCompleted == len(j.tasks) }

// Uncompleted returns the IDs of tasks without consensus, ascending.
func (j *Job) Uncompleted() []int {
	var out []int
	for t := range j.tasks {
		if !j.tasks[t].completed {
			out = append(out, t)
		}
	}
	return out
}

// MajorityResults aggregates every task by majority vote: the consensus for
// completed tasks, the current leading answer otherwise (None if no votes
// or tied).
func (j *Job) MajorityResults() map[int]task.Answer {
	out := make(map[int]task.Answer, len(j.tasks))
	for t := range j.tasks {
		ts := &j.tasks[t]
		if ts.completed {
			out[t] = ts.consensus
			continue
		}
		raw := make([]task.Answer, 0, len(ts.votes))
		for _, v := range ts.votes {
			raw = append(raw, v.Answer)
		}
		if a, ok := aggregate.MajorityVote(raw); ok {
			out[t] = a
		} else {
			out[t] = task.None
		}
	}
	return out
}
