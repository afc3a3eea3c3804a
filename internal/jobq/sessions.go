package jobq

// Session registry: the admission-control and lifecycle substrate for
// long-lived incremental (ECO) legalization sessions (internal/service,
// docs/SERVICE.md §8). Like the job queue it carries no knowledge of
// legalization — a session holds an opaque payload — and enforces the
// same discipline: bounded admission (global and per-tenant caps, checked
// before the payload is built), serialized access (one delta batch at a
// time per session, extra callers queue on the session mutex so TCP flow
// control is the only backpressure a client sees), and drain-aware
// shutdown (CloseAll waits for every in-flight batch to finish before
// tearing a session down, and for opens still building up to a deadline).

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mrlegal/internal/obs"
)

// Session admission and lifecycle errors.
var (
	// ErrSessionLimit rejects an open because MaxSessions sessions are
	// already active, or the tenant is at its per-tenant cap.
	ErrSessionLimit = errors.New("jobq: session limit reached")

	// ErrSessionNotFound marks a session ID the registry does not know
	// (never opened, or already closed).
	ErrSessionNotFound = errors.New("jobq: no such session")
)

// SessionConfig tunes a SessionRegistry. The zero value is usable.
type SessionConfig struct {
	// MaxSessions caps concurrently open sessions across all tenants.
	// <= 0 means 16.
	MaxSessions int

	// PerTenant caps concurrently open sessions per tenant. <= 0 means 4.
	PerTenant int

	// Obs registers jobq_sessions_* metrics when non-nil.
	Obs *obs.Observer
}

func (c *SessionConfig) defaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.PerTenant <= 0 {
		c.PerTenant = 4
	}
}

// Session is one registered session. Payload access goes through Do,
// which serializes callers; the registry never touches the payload.
type Session struct {
	id     string
	tenant string
	reg    *SessionRegistry

	mu      sync.Mutex // serializes Do and Close teardown
	payload any
	closed  bool
}

// ID returns the registry-assigned session id.
func (s *Session) ID() string { return s.id }

// Tenant returns the owning tenant.
func (s *Session) Tenant() string { return s.tenant }

// Do runs fn with exclusive access to the session payload. Calls are
// serialized per session; a call that arrives while another is in flight
// blocks until its turn (the HTTP layer reads one delta frame at a time,
// so this is where concurrent posts to one session queue up). Do returns
// ErrSessionNotFound if the session was closed before fn could run.
func (s *Session) Do(fn func(payload any) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: %s", ErrSessionNotFound, s.id)
	}
	return fn(s.payload)
}

// SessionRegistry tracks open sessions with bounded admission. The
// zero-value is not usable; call NewSessionRegistry.
type SessionRegistry struct {
	cfg SessionConfig

	mu        sync.Mutex
	sessions  map[string]*Session
	opening   int            // slots held by opens whose build is running
	building  sync.WaitGroup // the same opens, for CloseAll to wait on
	perTenant map[string]int // slots held per tenant: open plus opening
	seq       uint64
	shutdown  bool

	// onClose releases payload resources; set by the service so the
	// registry stays payload-agnostic.
	onClose func(payload any)

	m *sessionMetrics
}

type sessionMetrics struct {
	active   *obs.Gauge
	opened   *obs.Counter
	closed   *obs.Counter
	rejected *obs.Counter
}

// NewSessionRegistry builds a registry. onClose (may be nil) runs once
// per session, under the session lock, when the session is closed — the
// hook for releasing engine resources.
func NewSessionRegistry(cfg SessionConfig, onClose func(payload any)) *SessionRegistry {
	cfg.defaults()
	r := &SessionRegistry{
		cfg:       cfg,
		sessions:  make(map[string]*Session),
		perTenant: make(map[string]int),
		onClose:   onClose,
	}
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		r.m = &sessionMetrics{
			active:   reg.Gauge("jobq_sessions_active", "Incremental legalization sessions currently open in the registry."),
			opened:   reg.Counter("jobq_sessions_opened_total", "Sessions admitted by the registry."),
			closed:   reg.Counter("jobq_sessions_closed_total", "Sessions closed (explicitly or by shutdown)."),
			rejected: reg.Counter("jobq_sessions_rejected_total", "Session opens rejected by admission control."),
		}
	}
	return r
}

// Open admits a new session for the tenant. It takes a slot under both
// caps, where opens whose build still runs count too, and only then calls
// build, outside the registry lock; the session holds the payload build
// returns. A build that fails or panics frees its slot, and Open returns
// its error (a panic goes on up). Admission fails with ErrSessionLimit at
// either cap and with ErrShuttingDown after CloseAll began; a payload
// built after CloseAll began is released through onClose.
func (r *SessionRegistry) Open(tenant string, build func() (any, error)) (*Session, error) {
	if err := r.reserve(tenant); err != nil {
		return nil, err
	}
	var s *Session
	defer func() {
		if s == nil {
			r.release(tenant)
		}
		r.building.Done()
	}()
	payload, err := build()
	if err != nil {
		return nil, err
	}
	if s = r.register(tenant, payload); s == nil {
		if r.onClose != nil {
			r.onClose(payload)
		}
		return nil, ErrShuttingDown
	}
	return s, nil
}

// reserve takes a session slot for the tenant, or says why it cannot.
func (r *SessionRegistry) reserve(tenant string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shutdown {
		return ErrShuttingDown
	}
	if n := len(r.sessions) + r.opening; n >= r.cfg.MaxSessions {
		if r.m != nil {
			r.m.rejected.Inc()
		}
		return fmt.Errorf("%w: %d sessions open or opening", ErrSessionLimit, n)
	}
	if r.perTenant[tenant] >= r.cfg.PerTenant {
		if r.m != nil {
			r.m.rejected.Inc()
		}
		return fmt.Errorf("%w: tenant %q has %d sessions", ErrSessionLimit, tenant, r.perTenant[tenant])
	}
	r.opening++
	r.building.Add(1)
	r.perTenant[tenant]++
	return nil
}

// release frees a slot reserve took whose open registered no session.
func (r *SessionRegistry) release(tenant string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opening--
	r.dropTenantLocked(tenant)
}

// register turns a reserved slot into an open session holding payload.
// It returns nil, keeping the slot, once CloseAll has begun.
func (r *SessionRegistry) register(tenant string, payload any) *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shutdown {
		return nil
	}
	r.opening--
	r.seq++
	s := &Session{id: fmt.Sprintf("s-%06d", r.seq), tenant: tenant, reg: r, payload: payload}
	r.sessions[s.id] = s
	if r.m != nil {
		r.m.opened.Inc()
		r.m.active.Set(int64(len(r.sessions)))
	}
	return s
}

// Get returns the open session with the given id.
func (r *SessionRegistry) Get(id string) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	return s, nil
}

// Close ends the session with the given id, waiting for an in-flight Do
// to finish first.
func (r *SessionRegistry) Close(id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	r.unregisterLocked(s)
	r.mu.Unlock()
	s.teardown()
	return nil
}

// unregisterLocked removes the session from the index. Caller holds r.mu.
func (r *SessionRegistry) unregisterLocked(s *Session) {
	delete(r.sessions, s.id)
	r.dropTenantLocked(s.tenant)
	if r.m != nil {
		r.m.closed.Inc()
		r.m.active.Set(int64(len(r.sessions)))
	}
}

// dropTenantLocked frees one of the tenant's slots. Caller holds r.mu.
func (r *SessionRegistry) dropTenantLocked(tenant string) {
	r.perTenant[tenant]--
	if r.perTenant[tenant] == 0 {
		delete(r.perTenant, tenant)
	}
}

// teardown closes the session under its own lock, so it blocks behind
// any in-flight Do — the drain half of drain-aware shutdown.
func (s *Session) teardown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.reg.onClose != nil {
		s.reg.onClose(s.payload)
	}
	s.payload = nil
}

// CloseAll stops admission and closes every session, waiting for each
// in-flight delta batch to finish (batches are bounded work — one frame —
// so the wait is short by construction). It then waits until every open
// whose build is still running has returned, as Queue.Shutdown waits for
// running jobs, or until ctx is done, when it returns ctx's error; the
// goroutine that waits for the builds exits once the last one returns.
// New opens fail with ErrShuttingDown from the moment CloseAll is
// entered, and a payload built after that is released through onClose.
// A later call waits for the builds again.
func (r *SessionRegistry) CloseAll(ctx context.Context) error {
	r.mu.Lock()
	r.shutdown = true
	building := r.opening > 0
	all := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		all = append(all, s)
	}
	for _, s := range all {
		r.unregisterLocked(s)
	}
	r.mu.Unlock()
	for _, s := range all {
		s.teardown()
	}
	if !building {
		return nil
	}
	done := make(chan struct{})
	go func() {
		r.building.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Active returns the number of open sessions.
func (r *SessionRegistry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// ActiveFor returns the number of session slots one tenant holds: its
// open sessions plus its opens whose build is still running.
func (r *SessionRegistry) ActiveFor(tenant string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.perTenant[tenant]
}
