// Package jobs tracks the serving tier's tuning runs: lifecycle state,
// the recorded progress-event history, and the watcher accounting that
// decides when an abandoned run should be cancelled.
//
// Each Job records every rooftune.Event its session emits. Consumers
// read the stream with a cursor (EventsSince) — history replays
// instantly, then the returned notify channel signals each append — so
// a late SSE subscriber observes exactly the same event sequence a
// WithProgress callback saw, and a slow subscriber never back-pressures
// the run (it only falls behind its own cursor).
//
// Watcher accounting implements disconnect cancellation: synchronous
// requests and SSE streams register as watchers, and when the last
// watcher of an unpinned job disconnects the job's context is cancelled
// — nobody is waiting for the answer. Jobs submitted asynchronously are
// pinned: their clients poll, so no-watchers is their normal state.
package jobs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rooftune"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Terminal states are StateDone, StateFailed and
// StateShed; cancellation surfaces as StateFailed with a context error
// message, and admission refusals as StateShed with a retry-after hint.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateShed    State = "shed"
)

// isTerminal reports whether a state admits no further transitions.
func isTerminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateShed
}

// Job is one tuning run under the daemon.
type Job struct {
	// ID is the registry-assigned handle clients poll.
	ID string
	// Key is the session fingerprint the job computes — the cache key
	// its result is stored under and the singleflight identity that
	// collapses concurrent identical submissions onto this job.
	Key string

	mu         sync.Mutex
	state      State
	errMsg     string
	result     []byte
	cached     bool
	retryAfter time.Duration
	events     []rooftune.Event
	notify     chan struct{}
	done       chan struct{}
	cancel     context.CancelFunc
	watchers   int
	pinned     bool

	onTerminal func(*Job)
}

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID     string
	Key    string
	State  State
	Err    string
	Result []byte
	Cached bool
	Events int
	// RetryAfter is the resubmission hint of a shed job; zero otherwise.
	RetryAfter time.Duration
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:         j.ID,
		Key:        j.Key,
		State:      j.state,
		Err:        j.errMsg,
		Result:     j.result,
		Cached:     j.cached,
		Events:     len(j.events),
		RetryAfter: j.retryAfter,
	}
}

// Arm installs the cancel function on a still-queued job so disconnect
// cancellation and explicit Cancel reach it before it holds a run slot
// (a job waiting in the admission queue must still be abortable).
func (j *Job) Arm(cancel context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.cancel = cancel
	}
}

// Start moves the job to running and installs the cancel function that
// disconnect cancellation and explicit Cancel invoke.
func (j *Job) Start(cancel context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		panic(fmt.Sprintf("jobs: Start on %s job %s", j.state, j.ID))
	}
	j.state = StateRunning
	j.cancel = cancel
	j.broadcast()
}

// Emit appends one progress event to the job's history and wakes every
// cursor blocked on the notify channel. It is safe from any goroutine —
// it is the job's WithProgress callback.
func (j *Job) Emit(ev rooftune.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	j.broadcast()
}

// Finish completes the job with its serialized Result bytes; cached
// records whether they came from the content-addressed cache rather
// than a fresh measurement.
func (j *Job) Finish(result []byte, cached bool) {
	j.terminal(StateDone, "", result, cached)
}

// Fail completes the job with an error.
func (j *Job) Fail(err error) {
	j.terminal(StateFailed, err.Error(), nil, false)
}

// Shed completes the job as refused by admission control: it never held
// a run slot and the client may resubmit after retryAfter. Every
// singleflight joiner of the job observes the same refusal.
func (j *Job) Shed(retryAfter time.Duration) {
	j.mu.Lock()
	j.retryAfter = retryAfter
	j.mu.Unlock()
	j.terminal(StateShed, "admission refused: daemon overloaded", nil, false)
}

func (j *Job) terminal(state State, errMsg string, result []byte, cached bool) {
	j.mu.Lock()
	if isTerminal(j.state) {
		j.mu.Unlock()
		return // first completion wins; a late ctx error must not clobber a result
	}
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.cached = cached
	hook := j.onTerminal
	j.mu.Unlock()
	// The hook (the registry leaving its active index) runs before any
	// waiter wakes, so a client that saw the job finish never finds it
	// still counted as active.
	if hook != nil {
		hook(j)
	}
	j.mu.Lock()
	close(j.done)
	j.broadcast()
	j.mu.Unlock()
}

// broadcast wakes every blocked cursor. Callers hold j.mu.
func (j *Job) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// EventsSince returns a copy of the events from cursor position i
// onward, whether the job has reached a terminal state, and a channel
// that is closed on the next change. The consumer loop is:
// drain the slice, advance the cursor, and if not terminal wait on
// notify (or the consumer's own context).
func (j *Job) EventsSince(i int) (evs []rooftune.Event, terminal bool, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, isTerminal(j.state), j.notify
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pin marks the job as surviving without watchers (asynchronous
// submissions, whose clients poll instead of holding a connection).
func (j *Job) Pin() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pinned = true
}

// AddWatcher registers a connected consumer (a synchronous request or
// an SSE stream).
func (j *Job) AddWatcher() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.watchers++
}

// RemoveWatcher deregisters a consumer. When the last watcher of an
// unpinned, still-running job leaves, the job is cancelled: its answer
// has no audience, and the campaign can be re-submitted later — the
// content-addressed cache makes retries cheap.
func (j *Job) RemoveWatcher() {
	j.mu.Lock()
	if j.watchers <= 0 {
		panic(fmt.Sprintf("jobs: watcher underflow on job %s", j.ID))
	}
	j.watchers--
	cancel := j.cancel
	abandoned := j.watchers == 0 && !j.pinned &&
		(j.state == StateQueued || j.state == StateRunning)
	j.mu.Unlock()
	if abandoned && cancel != nil {
		cancel()
	}
}

// Cancel aborts the job explicitly (DELETE from a client). A terminal
// job is unaffected.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Registry indexes jobs by ID and, while they are in flight, by
// fingerprint key — the singleflight index that collapses concurrent
// identical submissions onto one run.
type Registry struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	active map[string]*Job
	seq    int
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		jobs:   make(map[string]*Job),
		active: make(map[string]*Job),
	}
}

// GetOrCreate returns the in-flight job for the fingerprint key,
// creating one if none exists. created reports whether this call made
// the job — exactly one caller per key observes true and owns starting
// the run; everyone else joins the existing job.
func (r *Registry) GetOrCreate(key string) (job *Job, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.active[key]; ok {
		return j, false
	}
	r.seq++
	j := &Job{
		ID:     fmt.Sprintf("j-%d", r.seq),
		Key:    key,
		state:  StateQueued,
		notify: make(chan struct{}),
		done:   make(chan struct{}),
		onTerminal: func(j *Job) {
			// A finished job leaves the singleflight index: a later
			// same-key submission that misses the cache (eviction)
			// must get a fresh run, not a stale handle.
			r.mu.Lock()
			if r.active[j.Key] == j {
				delete(r.active, j.Key)
			}
			r.mu.Unlock()
		},
	}
	r.jobs[j.ID] = j
	r.active[key] = j
	return j, true
}

// Get returns the job with the given ID.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Len reports how many jobs the registry remembers (all states).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// Active reports how many jobs are currently queued or running.
func (r *Registry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// StateCounts tallies every remembered job by lifecycle state — the
// jobs-by-state gauge family on /metrics. Job locks nest inside the
// registry lock (the terminal hook runs outside the job lock, so the
// reverse order never occurs).
func (r *Registry) StateCounts() map[State]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[State]int, 5)
	for _, j := range r.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}

// Watchers sums the connected consumers (synchronous requests and SSE
// streams) across all jobs — the SSE watcher-count gauge on /metrics.
func (r *Registry) Watchers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, j := range r.jobs {
		j.mu.Lock()
		total += j.watchers
		j.mu.Unlock()
	}
	return total
}
