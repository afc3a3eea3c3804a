// Package jobq is a bounded multi-tenant job queue with admission
// control, a fixed worker pool, per-job deadlines, per-job panic
// isolation and graceful shutdown. It is the scheduling substrate of the
// legalization service (internal/service, cmd/mrserve), but carries no
// knowledge of legalization: jobs are opaque payloads handed to a Runner.
//
// Robustness contract:
//
//   - Admission is bounded. At most Config.QueueBound jobs wait for a
//     worker and at most Config.PerTenant jobs per tenant are in flight
//     (queued + running). Overload is rejected immediately with
//     ErrQueueFull / ErrTenantLimit — the queue never buffers without
//     bound and never blocks a submitter.
//   - A panicking job is recovered at the worker boundary, recorded as a
//     failed job wrapping ErrJobPanicked, and the worker survives to run
//     the next job. A job can never crash the process.
//   - Every job runs under a context that is canceled by its deadline,
//     by Cancel, or by a forced shutdown, so a well-behaved Runner (the
//     legalization engine honors cancellation at cell boundaries) always
//     unwinds promptly.
//   - Shutdown stops admission, then drains queued and running jobs; if
//     the drain deadline expires the remaining jobs are hard-canceled
//     through their contexts and the queue still waits for the workers
//     to unwind before returning. State is never torn down under a
//     running job.
package jobq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mrlegal/internal/obs"
)

// Admission and lifecycle errors. Submit failures unwrap (errors.Is) to
// ErrQueueFull, ErrTenantLimit or ErrShuttingDown so callers can map them
// to transport-level responses (the HTTP layer turns the first two into
// 429 + Retry-After and the third into 503).
var (
	// ErrQueueFull rejects a submit because QueueBound jobs already wait
	// for a worker.
	ErrQueueFull = errors.New("jobq: queue full")

	// ErrTenantLimit rejects a submit because the tenant already has
	// PerTenant jobs in flight.
	ErrTenantLimit = errors.New("jobq: tenant in-flight limit reached")

	// ErrShuttingDown rejects a submit after Shutdown began.
	ErrShuttingDown = errors.New("jobq: shutting down")

	// ErrNotFound marks a job ID the registry does not know (never
	// submitted, or evicted after completion; see Config.DoneCap).
	ErrNotFound = errors.New("jobq: no such job")

	// ErrJobPanicked wraps the recovered panic value of a job that
	// panicked in its Runner. The worker that ran it survives.
	ErrJobPanicked = errors.New("jobq: job panicked")

	// ErrCanceled marks a job canceled before or during execution
	// (explicit Cancel or forced shutdown).
	ErrCanceled = errors.New("jobq: job canceled")
)

// State is a job lifecycle state. The happy path is
// Queued → Running → Succeeded; terminal states are Succeeded, Failed
// and Canceled.
type State int32

const (
	Queued State = iota
	Running
	Succeeded
	Failed
	Canceled
)

var stateNames = [...]string{"queued", "running", "succeeded", "failed", "canceled"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int32(s))
	}
	return stateNames[s]
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Succeeded || s == Failed || s == Canceled }

// MarshalText renders the state name, so snapshots JSON-encode as
// "queued", "running", ...
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	for i, n := range stateNames {
		if n == string(b) {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("jobq: unknown state %q", b)
}

// Runner executes one job. The context carries the job deadline and
// cancellation; a Runner that honors it keeps Shutdown bounded. The
// returned result is stored on the job verbatim. Panics are recovered by
// the worker and turn into a Failed job wrapping ErrJobPanicked.
type Runner func(ctx context.Context, id string, payload any) (any, error)

// Config tunes a Queue. The zero value is usable: every field has a
// defensive default.
type Config struct {
	// Workers is the worker-pool size. <= 0 means runtime.NumCPU.
	Workers int

	// QueueBound caps jobs waiting for a worker (running jobs do not
	// count). <= 0 means 64. Submits beyond the bound fail with
	// ErrQueueFull.
	QueueBound int

	// PerTenant caps the in-flight (queued + running) jobs of one tenant.
	// <= 0 means 16. Submits beyond the cap fail with ErrTenantLimit.
	PerTenant int

	// DoneCap bounds retained terminal jobs: once exceeded, the oldest
	// finished jobs are evicted from the registry (their IDs then report
	// ErrNotFound). <= 0 means 1024.
	DoneCap int

	// Obs, when non-nil, registers the queue's metrics (jobq_* series;
	// see docs/OBSERVABILITY.md) on this registry.
	Obs *obs.Registry

	// now overrides the clock in tests.
	now func() time.Time
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.PerTenant <= 0 {
		c.PerTenant = 16
	}
	if c.DoneCap <= 0 {
		c.DoneCap = 1024
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Snapshot is an immutable copy of a job's externally visible state.
type Snapshot struct {
	ID       string
	Tenant   string
	State    State
	Err      error // non-nil for Failed and Canceled jobs
	Result   any   // Runner result; may be non-nil for Canceled jobs (partial work)
	Created  time.Time
	Started  time.Time // zero until the job ran
	Finished time.Time // zero until terminal
}

// job is the internal mutable record. All fields are guarded by Queue.mu.
type job struct {
	id       string
	tenant   string
	payload  any
	deadline time.Duration

	state      State
	err        error
	result     any
	created    time.Time
	started    time.Time
	finished   time.Time
	cancel     context.CancelFunc // non-nil while running
	cancelWant bool               // Cancel was requested (or forced by shutdown)
}

func (j *job) snapshot() Snapshot {
	return Snapshot{
		ID: j.id, Tenant: j.tenant, State: j.state, Err: j.err, Result: j.result,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// metrics bundles the queue's obs handles; all nil when Config.Obs is.
type metrics struct {
	submitted   *obs.Counter
	rejFull     *obs.Counter
	rejTenant   *obs.Counter
	rejShutdown *obs.Counter
	doneOK      *obs.Counter
	doneFail    *obs.Counter
	doneCancel  *obs.Counter
	panics      *obs.Counter
	depth       *obs.Gauge
	running     *obs.Gauge
	waitSecs    *obs.Histogram
	runSecs     *obs.Histogram
}

func newMetrics(r *obs.Registry) *metrics {
	if r == nil {
		return nil
	}
	rej := func(reason string) *obs.Counter {
		return r.Counter(obs.WithLabels("jobq_rejected_total", "reason", reason),
			"Jobs rejected at admission, by reason.")
	}
	done := func(state string) *obs.Counter {
		return r.Counter(obs.WithLabels("jobq_jobs_done_total", "state", state),
			"Jobs reaching a terminal state, by state.")
	}
	return &metrics{
		submitted:   r.Counter("jobq_jobs_submitted_total", "Jobs admitted to the queue."),
		rejFull:     rej("queue_full"),
		rejTenant:   rej("tenant_limit"),
		rejShutdown: rej("shutting_down"),
		doneOK:      done("succeeded"),
		doneFail:    done("failed"),
		doneCancel:  done("canceled"),
		panics:      r.Counter("jobq_job_panics_total", "Jobs that panicked in their runner (recovered; the worker survived)."),
		depth:       r.Gauge("jobq_queue_depth", "Jobs waiting for a worker."),
		running:     r.Gauge("jobq_jobs_running", "Jobs currently executing."),
		waitSecs:    r.Histogram("jobq_job_wait_seconds", "Queue wait per job (admission to start).", nil),
		runSecs:     r.Histogram("jobq_job_run_seconds", "Execution time per job (start to terminal).", nil),
	}
}

// Queue is a bounded multi-tenant job queue. Create with New; all methods
// are safe for concurrent use.
type Queue struct {
	cfg Config
	run Runner
	m   *metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	seq       uint64
	jobs      map[string]*job
	tenants   map[string]int // in-flight (queued + running) per tenant
	doneOrder []string       // terminal job IDs, oldest first, for eviction
	pending   chan *job
	closed    bool

	wg sync.WaitGroup
}

// New builds the queue and starts its worker pool immediately.
func New(cfg Config, run Runner) *Queue {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cfg:        cfg,
		run:        run,
		m:          newMetrics(cfg.Obs),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		tenants:    make(map[string]int),
		pending:    make(chan *job, cfg.QueueBound),
	}
	q.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go q.worker()
	}
	return q
}

// Submit admits a job for tenant with the given payload. A positive
// deadline bounds the job's execution; 0 means none. It returns the
// queued snapshot, or an admission error wrapping ErrQueueFull,
// ErrTenantLimit or ErrShuttingDown. Submit never blocks.
func (q *Queue) Submit(tenant string, payload any, deadline time.Duration) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		if q.m != nil {
			q.m.rejShutdown.Inc()
		}
		return Snapshot{}, ErrShuttingDown
	}
	if q.tenants[tenant] >= q.cfg.PerTenant {
		if q.m != nil {
			q.m.rejTenant.Inc()
		}
		return Snapshot{}, fmt.Errorf("%w (tenant %q, cap %d)", ErrTenantLimit, tenant, q.cfg.PerTenant)
	}
	q.seq++
	j := &job{
		id:       fmt.Sprintf("j-%06d", q.seq),
		tenant:   tenant,
		payload:  payload,
		deadline: deadline,
		state:    Queued,
		created:  q.cfg.now(),
	}
	select {
	case q.pending <- j:
	default:
		q.seq-- // ID was never exposed; reuse it
		if q.m != nil {
			q.m.rejFull.Inc()
		}
		return Snapshot{}, fmt.Errorf("%w (bound %d)", ErrQueueFull, q.cfg.QueueBound)
	}
	q.jobs[j.id] = j
	q.tenants[tenant]++
	if q.m != nil {
		q.m.submitted.Inc()
		q.m.depth.Add(1)
	}
	return j.snapshot(), nil
}

// Get returns the snapshot of a job.
func (q *Queue) Get(id string) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Cancel requests cancellation of a job. A queued job becomes Canceled
// immediately; a running job has its context canceled and reaches
// Canceled once its Runner unwinds; a terminal job is unaffected. The
// returned snapshot reflects the state after the request.
func (q *Queue) Cancel(id string) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	switch j.state {
	case Queued:
		j.cancelWant = true
		q.finalizeLocked(j, nil, ErrCanceled)
	case Running:
		j.cancelWant = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.snapshot(), nil
}

// Depth returns the number of jobs waiting for a worker.
func (q *Queue) Depth() int {
	return len(q.pending)
}

// Running returns the number of currently executing jobs.
func (q *Queue) Running() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, j := range q.jobs {
		if j.state == Running {
			n++
		}
	}
	return n
}

// InFlight returns the in-flight (queued + running) job count of a
// tenant — the quantity capped by Config.PerTenant.
func (q *Queue) InFlight(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tenants[tenant]
}

// Shutdown stops admission and drains the queue: queued jobs still run,
// running jobs finish. If ctx expires first, every remaining job is
// hard-canceled through its context and Shutdown still waits for the
// workers to unwind before returning ctx.Err(). A nil return means the
// drain completed within the deadline. Shutdown is idempotent; later
// calls wait for the same drain.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.pending)
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	// Drain deadline expired: force-cancel everything still alive. Queued
	// jobs are canceled as workers dequeue them (their contexts are born
	// canceled); running jobs unwind at the Runner's next cancellation
	// point.
	q.mu.Lock()
	for _, j := range q.jobs {
		if j.state == Queued || j.state == Running {
			j.cancelWant = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	q.baseCancel()
	q.mu.Unlock()
	<-done
	return ctx.Err()
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.pending {
		q.execute(j)
	}
}

func (q *Queue) execute(j *job) {
	q.mu.Lock()
	if q.m != nil {
		q.m.depth.Add(-1)
	}
	if j.state != Queued { // canceled while waiting
		q.mu.Unlock()
		return
	}
	j.state = Running
	j.started = q.cfg.now()
	var ctx context.Context
	var cancel context.CancelFunc
	if j.deadline > 0 {
		ctx, cancel = context.WithTimeout(q.baseCtx, j.deadline)
	} else {
		ctx, cancel = context.WithCancel(q.baseCtx)
	}
	if j.cancelWant {
		cancel()
	}
	j.cancel = cancel
	if q.m != nil {
		q.m.running.Add(1)
		q.m.waitSecs.Observe(j.started.Sub(j.created).Seconds())
	}
	q.mu.Unlock()

	res, err := q.runSafe(ctx, j)
	cancel()

	q.mu.Lock()
	q.finalizeLocked(j, res, err)
	q.mu.Unlock()
}

// runSafe invokes the Runner with panic isolation: a panic becomes an
// error wrapping ErrJobPanicked and the calling worker survives.
func (q *Queue) runSafe(ctx context.Context, j *job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			if q.m != nil {
				q.m.panics.Inc()
			}
			err = fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
	}()
	return q.run(ctx, j.id, j.payload)
}

// finalizeLocked moves j to its terminal state and settles all
// accounting. It is the single place tenant counts decrement and
// completed-job eviction runs. Caller holds q.mu.
func (q *Queue) finalizeLocked(j *job, res any, err error) {
	if j.state.Terminal() {
		return
	}
	wasRunning := j.state == Running
	j.finished = q.cfg.now()
	j.result = res
	switch {
	case j.cancelWant:
		j.state = Canceled
		if err == nil || errors.Is(err, context.Canceled) {
			err = ErrCanceled
		}
		j.err = err
	case err != nil:
		j.state = Failed
		j.err = err
	default:
		j.state = Succeeded
	}
	q.tenants[j.tenant]--
	if q.tenants[j.tenant] <= 0 {
		delete(q.tenants, j.tenant)
	}
	if q.m != nil {
		if wasRunning {
			q.m.running.Add(-1)
			q.m.runSecs.Observe(j.finished.Sub(j.started).Seconds())
		}
		switch j.state {
		case Succeeded:
			q.m.doneOK.Inc()
		case Failed:
			q.m.doneFail.Inc()
		case Canceled:
			q.m.doneCancel.Inc()
		}
	}
	q.doneOrder = append(q.doneOrder, j.id)
	for len(q.doneOrder) > q.cfg.DoneCap {
		delete(q.jobs, q.doneOrder[0])
		q.doneOrder = q.doneOrder[1:]
	}
}
