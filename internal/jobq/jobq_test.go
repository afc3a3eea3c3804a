package jobq

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrlegal/internal/obs"
)

// gateRunner blocks each job until released (or its ctx cancels), so
// tests control exactly when workers are busy.
type gateRunner struct {
	mu       sync.Mutex
	started  chan string   // receives job IDs as they begin
	release  chan struct{} // close (or send) to let jobs finish
	results  map[string]any
	failWith error
}

func newGateRunner() *gateRunner {
	return &gateRunner{
		started: make(chan string, 128),
		release: make(chan struct{}, 128),
		results: map[string]any{},
	}
}

func (g *gateRunner) run(ctx context.Context, id string, payload any) (any, error) {
	g.started <- id
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failWith != nil {
		return nil, g.failWith
	}
	if r, ok := g.results[id]; ok {
		return r, nil
	}
	return payload, nil
}

func waitState(t *testing.T, q *Queue, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, err := q.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if s.State == want {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	s, _ := q.Get(id)
	t.Fatalf("job %s: state %v, want %v", id, s.State, want)
	return Snapshot{}
}

func shutdownOK(t *testing.T, q *Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestSubmitRunSucceeds(t *testing.T) {
	g := newGateRunner()
	q := New(Config{Workers: 2, QueueBound: 4}, g.run)
	defer shutdownOK(t, q)

	s, err := q.Submit("acme", "payload-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != Queued || s.ID == "" || s.Tenant != "acme" || s.Created.IsZero() {
		t.Fatalf("bad queued snapshot: %+v", s)
	}
	<-g.started
	g.release <- struct{}{}
	fin := waitState(t, q, s.ID, Succeeded)
	if fin.Result != "payload-1" || fin.Err != nil {
		t.Fatalf("bad result: %+v", fin)
	}
	if fin.Started.IsZero() || fin.Finished.IsZero() {
		t.Fatalf("missing timestamps: %+v", fin)
	}
}

func TestRunnerErrorFailsJob(t *testing.T) {
	g := newGateRunner()
	boom := errors.New("boom")
	g.failWith = boom
	q := New(Config{Workers: 1}, g.run)
	defer shutdownOK(t, q)

	s, err := q.Submit("t", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	g.release <- struct{}{}
	fin := waitState(t, q, s.ID, Failed)
	if !errors.Is(fin.Err, boom) {
		t.Fatalf("want boom, got %v", fin.Err)
	}
}

// TestQueueBound fills the single worker and the queue, then checks the
// next submit is rejected fast with ErrQueueFull — not buffered, not
// blocked.
func TestQueueBound(t *testing.T) {
	g := newGateRunner()
	q := New(Config{Workers: 1, QueueBound: 2, PerTenant: 16}, g.run)
	defer func() {
		close(g.release)
		shutdownOK(t, q)
	}()

	if _, err := q.Submit("t", nil, 0); err != nil { // runs
		t.Fatal(err)
	}
	<-g.started
	for i := 0; i < 2; i++ { // fills the bound
		if _, err := q.Submit("t", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := q.Submit("t", nil, 0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if d := q.Depth(); d != 2 {
		t.Fatalf("Depth = %d, want 2", d)
	}
}

// TestPerTenantCap checks one tenant cannot starve the queue: its
// submits beyond PerTenant are rejected with ErrTenantLimit while other
// tenants still get in.
func TestPerTenantCap(t *testing.T) {
	g := newGateRunner()
	q := New(Config{Workers: 1, QueueBound: 16, PerTenant: 2}, g.run)
	defer func() {
		close(g.release)
		shutdownOK(t, q)
	}()

	for i := 0; i < 2; i++ {
		if _, err := q.Submit("greedy", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := q.Submit("greedy", nil, 0)
	if !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("want ErrTenantLimit, got %v", err)
	}
	if _, err := q.Submit("polite", nil, 0); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if got := q.InFlight("greedy"); got != 2 {
		t.Fatalf("InFlight(greedy) = %d, want 2", got)
	}
}

// TestPanicIsolation submits a panicking job and checks (a) it fails
// wrapping ErrJobPanicked, (b) the worker survives to run the next job.
func TestPanicIsolation(t *testing.T) {
	q := New(Config{Workers: 1}, func(ctx context.Context, id string, p any) (any, error) {
		if p == "bomb" {
			panic("kaboom")
		}
		return "fine", nil
	})
	defer shutdownOK(t, q)

	bomb, err := q.Submit("t", "bomb", 0)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, q, bomb.ID, Failed)
	if !errors.Is(fin.Err, ErrJobPanicked) || !strings.Contains(fin.Err.Error(), "kaboom") {
		t.Fatalf("want ErrJobPanicked(kaboom), got %v", fin.Err)
	}

	ok, err := q.Submit("t", "normal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitState(t, q, ok.ID, Succeeded); s.Result != "fine" {
		t.Fatalf("worker did not survive the panic: %+v", s)
	}
}

func TestCancelQueued(t *testing.T) {
	g := newGateRunner()
	q := New(Config{Workers: 1}, g.run)
	defer func() {
		close(g.release)
		shutdownOK(t, q)
	}()

	if _, err := q.Submit("t", nil, 0); err != nil { // occupies the worker
		t.Fatal(err)
	}
	<-g.started
	queued, err := q.Submit("t", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := q.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != Canceled || !errors.Is(s.Err, ErrCanceled) {
		t.Fatalf("want immediate Canceled, got %+v", s)
	}
	if got := q.InFlight("t"); got != 1 {
		t.Fatalf("InFlight after queued cancel = %d, want 1", got)
	}
}

func TestCancelRunning(t *testing.T) {
	g := newGateRunner()
	q := New(Config{Workers: 1}, g.run)
	defer shutdownOK(t, q)

	s, err := q.Submit("t", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started // running, blocked on the gate; cancel unblocks via ctx
	if _, err := q.Cancel(s.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, q, s.ID, Canceled)
	if !errors.Is(fin.Err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", fin.Err)
	}
}

func TestCancelTerminalIsNoop(t *testing.T) {
	g := newGateRunner()
	q := New(Config{Workers: 1}, g.run)
	defer shutdownOK(t, q)

	s, _ := q.Submit("t", nil, 0)
	<-g.started
	g.release <- struct{}{}
	waitState(t, q, s.ID, Succeeded)
	got, err := q.Cancel(s.ID)
	if err != nil || got.State != Succeeded {
		t.Fatalf("cancel of terminal job: %+v, %v", got, err)
	}
}

func TestJobDeadline(t *testing.T) {
	g := newGateRunner() // never released: only the deadline can end it
	q := New(Config{Workers: 1}, g.run)
	defer shutdownOK(t, q)

	s, err := q.Submit("t", nil, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, q, s.ID, Failed)
	if !errors.Is(fin.Err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", fin.Err)
	}
}

// childCounter is a base context that counts the contexts derived from
// it that are still live: context.WithCancel and WithTimeout register a
// child through its AfterFunc and call the stop function AfterFunc
// returned when the child is canceled.
type childCounter struct {
	context.Context // Background's Deadline, Err and Value
	done            chan struct{}
	live            atomic.Int64
}

func (c *childCounter) Done() <-chan struct{} { return c.done }

func (c *childCounter) AfterFunc(func()) func() bool {
	c.live.Add(1)
	return func() bool { c.live.Add(-1); return true }
}

// TestJobContextsReleased checks a finished job leaves no context live
// on the queue's base context, deadline or not.
func TestJobContextsReleased(t *testing.T) {
	const n = 1000
	q := New(Config{Workers: 1, QueueBound: n, PerTenant: n}, func(context.Context, string, any) (any, error) {
		return nil, nil
	})
	base := &childCounter{Context: context.Background(), done: make(chan struct{})}
	q.baseCtx = base // before any Submit, so before any worker reads it
	for i := 0; i < n; i++ {
		if _, err := q.Submit("t", nil, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	shutdownOK(t, q)
	if got := base.live.Load(); got != 0 {
		t.Fatalf("%d of %d finished jobs left a context live on the base context, want 0", got, n)
	}
}

func TestShutdownDrains(t *testing.T) {
	g := newGateRunner()
	q := New(Config{Workers: 1, QueueBound: 8}, g.run)

	var ids []string
	for i := 0; i < 3; i++ {
		s, err := q.Submit("t", i, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	close(g.release) // all jobs finish instantly once scheduled

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		s, err := q.Get(id)
		if err != nil || s.State != Succeeded {
			t.Fatalf("job %s after drain: %+v, %v", id, s, err)
		}
	}
	if _, err := q.Submit("t", nil, 0); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v", err)
	}
}

// TestShutdownForceCancels checks the drain deadline: a job that only
// ends on ctx cancellation is hard-canceled when the deadline passes,
// and Shutdown still returns with the workers unwound.
func TestShutdownForceCancels(t *testing.T) {
	g := newGateRunner() // never released; honors ctx
	q := New(Config{Workers: 1, QueueBound: 8}, g.run)

	running, err := q.Submit("t", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	queued, err := q.Submit("t", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (forced drain)", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		s, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.State != Canceled {
			t.Errorf("job %s after forced shutdown: %v, want canceled", id, s.State)
		}
	}
}

func TestDoneEviction(t *testing.T) {
	q := New(Config{Workers: 1, DoneCap: 2},
		func(ctx context.Context, id string, p any) (any, error) { return nil, nil })
	defer shutdownOK(t, q)

	var ids []string
	for i := 0; i < 4; i++ {
		s, err := q.Submit("t", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, s.ID, Succeeded)
		ids = append(ids, s.ID)
	}
	if _, err := q.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest done job should be evicted, got %v", err)
	}
	if _, err := q.Get(ids[3]); err != nil {
		t.Fatalf("newest done job evicted too eagerly: %v", err)
	}
}

func TestGetUnknown(t *testing.T) {
	q := New(Config{Workers: 1}, func(ctx context.Context, id string, p any) (any, error) { return nil, nil })
	defer shutdownOK(t, q)
	if _, err := q.Get("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := q.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestStateText(t *testing.T) {
	for _, s := range []State{Queued, Running, Succeeded, Failed, Canceled} {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := back.UnmarshalText(b); err != nil || back != s {
			t.Fatalf("round trip %v: %v, %v", s, back, err)
		}
	}
	var s State
	if err := s.UnmarshalText([]byte("warped")); err == nil {
		t.Fatal("want error for unknown state name")
	}
	if Running.Terminal() || !Canceled.Terminal() {
		t.Fatal("Terminal misclassifies states")
	}
}

// TestMetrics checks the jobq_* series: counters and gauges settle to a
// consistent account of one small scenario.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := newGateRunner()
	q := New(Config{Workers: 1, QueueBound: 1, PerTenant: 1, Obs: reg}, g.run)

	a, err := q.Submit("t", nil, 0) // runs
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	if _, err := q.Submit("t", nil, 0); !errors.Is(err, ErrTenantLimit) {
		t.Fatal(err)
	}
	if _, err := q.Submit("u", nil, 0); err != nil { // queued
		t.Fatal(err)
	}
	if _, err := q.Submit("v", nil, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatal(err)
	}
	close(g.release)
	waitState(t, q, a.ID, Succeeded)
	shutdownOK(t, q)

	want := map[string]int64{
		"jobq_jobs_submitted_total":                   2,
		`jobq_rejected_total{reason="tenant_limit"}`:  1,
		`jobq_rejected_total{reason="queue_full"}`:    1,
		`jobq_jobs_done_total{state="succeeded"}`:     2,
		"jobq_queue_depth":                            0,
		"jobq_jobs_running":                           0,
		`jobq_rejected_total{reason="shutting_down"}`: 0,
		`jobq_jobs_done_total{state="failed"}`:        0,
		"jobq_job_panics_total":                       0,
	}
	for name, v := range want {
		var got int64
		if strings.Contains(name, "depth") || strings.Contains(name, "running") {
			got = reg.Gauge(name, "").Value()
		} else {
			got = reg.Counter(name, "").Value()
		}
		if got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if n := reg.Histogram("jobq_job_run_seconds", "", nil).Count(); n != 2 {
		t.Errorf("run histogram count = %d, want 2", n)
	}
}

func TestSnapshotStringStates(t *testing.T) {
	if got := fmt.Sprint(Queued, Running, Succeeded, Failed, Canceled); got != "queued running succeeded failed canceled" {
		t.Fatalf("state names: %q", got)
	}
	if got := State(99).String(); got != "State(99)" {
		t.Fatalf("out-of-range state: %q", got)
	}
}
