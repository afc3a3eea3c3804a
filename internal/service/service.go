// Package service wraps the legalization engine in a hardened HTTP/JSON
// job server — legalization-as-a-service. One mux serves the job API
// (/v1/jobs...), health and readiness probes (/healthz, /readyz) and the
// Prometheus exposition (/metrics) that previously lived on its own
// listener in internal/obs.
//
// The robustness contract, end to end:
//
//   - Admission is bounded (internal/jobq): a global queue bound and
//     per-tenant in-flight caps. Overload answers 429 with Retry-After
//     immediately — the server never buffers without bound.
//   - Request bodies are capped (http.MaxBytesReader) and submissions
//     are validated before any engine work; malformed or hostile
//     payloads answer 4xx, never a panic (fuzz_test.go holds that
//     contract at the decoder boundary).
//   - Every job runs under a deadline wired through context into
//     core.LegalizeBestEffort; an expired job still yields a partial
//     best-effort report with timed_out set.
//   - A panicking job becomes a failed job via jobq's per-job recover
//     (engine-level panics already roll back transactionally inside
//     LegalizeBestEffort); the server never crashes.
//   - Graceful shutdown: stop admission (readyz flips to 503, submits
//     answer 503), drain or cancel jobs within a deadline, stop the
//     HTTP listener, flush trace sinks.
//
// See docs/SERVICE.md for the API reference.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mrlegal/internal/core"
	"mrlegal/internal/faultinject"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/jobq"
	"mrlegal/internal/obs"
)

// Config tunes the server. The zero value is usable (it listens on a
// free port with defensive defaults).
type Config struct {
	// Addr is the listen address; empty means "127.0.0.1:0" (a free
	// port, resolved via Server.Addr).
	Addr string

	// Queue configures admission control and the worker pool. Its Obs
	// registry field is overwritten with the server's own registry.
	Queue jobq.Config

	// Sessions configures incremental (ECO) session admission: global
	// and per-tenant caps. Its Obs field is overwritten with the
	// server's own observer.
	Sessions jobq.SessionConfig

	// BaseCfg is the legalizer configuration jobs start from; per-job
	// config overrides apply on top. Nil means core.DefaultConfig.
	BaseCfg *core.Config

	// Limits bounds submissions (body size is separate; see
	// MaxBodyBytes).
	Limits Limits

	// MaxBodyBytes caps a request body. <= 0 means 64 MiB.
	MaxBodyBytes int64

	// RetryAfter is the hint sent with 429/503 rejections. <= 0 means 1s.
	RetryAfter time.Duration

	// DrainTimeout bounds graceful shutdown: jobs that have not drained
	// when it expires are hard-canceled. <= 0 means 30s.
	DrainTimeout time.Duration

	// Obs, when non-nil, supplies the observability layer (its registry
	// feeds /metrics and the queue's jobq_* series; its trace sink is
	// flushed on shutdown). Nil means a fresh Observer.
	Obs *obs.Observer

	// Log receives operational messages. Nil means log.Default.
	Log *log.Logger

	// Faults, when non-nil, injects worker-level faults for chaos tests
	// (see faultinject.JobInjector). Nil in production.
	Faults *faultinject.JobInjector

	// testGate, when non-nil, runs inside every job before engine work —
	// tests use it to hold workers busy deterministically.
	testGate func(ctx context.Context, id string)
}

// Server is the legalization job server. Create with New, start with
// Start, stop with Close.
type Server struct {
	cfg      Config
	base     core.Config
	obs      *obs.Observer
	q        *jobq.Queue
	sessions *jobq.SessionRegistry
	mux      *http.ServeMux
	httpSrv  *http.Server
	ln       net.Listener
	log      *log.Logger

	ready    atomic.Bool
	httpReqs func(route string, status int)

	// Each session open's legalization context also derives from
	// opensCtx, which Close cancels once the drain deadline has passed or
	// no open is left.
	opensCtx  context.Context
	stopOpens context.CancelFunc
}

// New validates cfg, the base legalizer config included, and builds the
// server (listener not yet open).
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(obs.Options{})
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	cfg.Limits.defaults()

	s := &Server{cfg: cfg, obs: cfg.Obs, log: cfg.Log}
	s.opensCtx, s.stopOpens = context.WithCancel(context.Background())
	s.base = core.DefaultConfig()
	if cfg.BaseCfg != nil {
		s.base = *cfg.BaseCfg
	}
	if err := s.base.Validate(); err != nil {
		return nil, err
	}

	reg := s.obs.Registry()
	reqTotal := func(route string, status int) *obs.Counter {
		return reg.Counter(obs.WithLabels("mrserve_http_requests_total",
			"route", route, "code", strconv.Itoa(status)),
			"HTTP requests served, by route and status code.")
	}
	s.httpReqs = func(route string, status int) { reqTotal(route, status).Inc() }

	qcfg := cfg.Queue
	qcfg.Obs = reg
	s.q = jobq.New(qcfg, s.runJob)

	scfg := cfg.Sessions
	scfg.Obs = s.obs
	s.sessions = jobq.NewSessionRegistry(scfg, func(payload any) { payload.(*core.Session).Close() })

	s.mux = http.NewServeMux()
	s.mux.Handle("GET /metrics", obs.MetricsHandler(reg))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/placement", s.handlePlacement)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/deltas", s.handleSessionDeltas)
	s.mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", s.handleSessionCheckpoint)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)

	// Slowloris and stuck-writer defenses: every stage of a connection
	// has a deadline. Submissions are bounded JSON documents and results
	// are bounded text dumps, so generous-but-finite limits fit all
	// routes.
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
		ErrorLog:          cfg.Log,
	}
	s.ready.Store(true)
	return s, nil
}

// Handler returns the server's mux — the full API surface — for tests
// that drive it without a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Start opens the listener and serves in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Printf("mrserve: serve: %v", err)
		}
	}()
	return nil
}

// Addr returns the resolved listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Close shuts the server down gracefully: admission stops first (readyz
// answers 503, submits answer 503 + Retry-After), then queued and
// running jobs and session opens still legalizing drain — hard-canceled
// if Config.DrainTimeout expires — then the HTTP listener stops and
// trace sinks flush. Close returns nil when every job drained in time.
// A canceled session open answers 503 shutting_down and does not fail
// Close: unlike a job, it was never acknowledged, so no client loses
// work the server accepted.
func (s *Server) Close() error {
	s.ready.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()

	drainErr := s.q.Shutdown(ctx)
	if drainErr != nil {
		s.log.Printf("mrserve: drain deadline expired; in-flight jobs canceled")
	}

	// Sessions drain after the queue: admission is already closed (ready
	// is false), and CloseAll waits out any delta batch still applying
	// before tearing each session down. Opens still legalizing get what
	// is left of the drain deadline; those left then are canceled, and a
	// second CloseAll waits for them to unwind.
	openErr := s.sessions.CloseAll(ctx)
	s.stopOpens()
	if openErr != nil {
		s.log.Printf("mrserve: drain deadline expired; session opens canceled")
		_ = s.sessions.CloseAll(context.Background())
	}

	// The job queue is settled; give in-flight HTTP exchanges (status
	// polls, result fetches) a short grace period of their own.
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	httpErr := s.httpSrv.Shutdown(httpCtx)

	flushErr := s.obs.Flush()
	if drainErr != nil {
		return fmt.Errorf("service: drain: %w", drainErr)
	}
	if httpErr != nil {
		return fmt.Errorf("service: http shutdown: %w", httpErr)
	}
	if flushErr != nil {
		return fmt.Errorf("service: trace flush: %w", flushErr)
	}
	return nil
}

// Queue exposes the underlying job queue (tests and the smoke driver
// inspect depth/in-flight counts).
func (s *Server) Queue() *jobq.Queue { return s.q }

// Sessions exposes the ECO session registry (tests and the smoke driver
// inspect active counts).
func (s *Server) Sessions() *jobq.SessionRegistry { return s.sessions }

// runJob is the jobq Runner: it builds a legalizer over the job's
// private design and runs best-effort legalization under the job's
// context. Chaos hooks (Config.Faults) fire around the engine work.
func (s *Server) runJob(ctx context.Context, id string, payload any) (any, error) {
	p := payload.(*jobPayload)
	if inj := s.cfg.Faults; inj != nil {
		inj.OnJobStart(id) // may panic: jobq's isolation is under test
		if ci := inj.NewCellInjector(); ci != nil {
			p.cfg.Faults = ci
		}
	}
	if s.cfg.testGate != nil {
		s.cfg.testGate(ctx, id)
	}
	_, rep, err := legalize(ctx, p)
	if err != nil {
		return nil, err
	}
	if inj := s.cfg.Faults; inj != nil {
		if err := inj.OnJobFinish(id); err != nil {
			return nil, err
		}
	}
	return &jobResult{rep: rep, d: p.d, nl: p.nl, checksum: p.d.PlacementChecksum()}, nil
}

// legalize is the engine step jobs and session opens share: a legalizer
// over the payload's design, then best-effort legalization under ctx.
func legalize(ctx context.Context, p *jobPayload) (*core.Legalizer, *core.Report, error) {
	l, err := core.NewLegalizer(p.d, p.cfg)
	if err != nil {
		return nil, nil, badf("%v", err)
	}
	rep, err := l.LegalizeBestEffort(ctx)
	return l, rep, err
}

// ---- wire types ----

// ErrorJSON is the error object embedded in API responses.
type ErrorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// JobJSON is the job resource returned by submit, status and cancel.
type JobJSON struct {
	ID       string      `json:"id"`
	Tenant   string      `json:"tenant"`
	State    jobq.State  `json:"state"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started,omitempty"`
	Finished *time.Time  `json:"finished,omitempty"`
	Error    *ErrorJSON  `json:"error,omitempty"`
	Report   *ReportJSON `json:"report,omitempty"`
}

func jobJSON(snap jobq.Snapshot) *JobJSON {
	j := &JobJSON{
		ID:      snap.ID,
		Tenant:  snap.Tenant,
		State:   snap.State,
		Created: snap.Created,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		j.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		j.Finished = &t
	}
	if snap.Err != nil {
		j.Error = &ErrorJSON{Code: ErrorCode(snap.Err), Message: snap.Err.Error()}
	}
	if res, ok := snap.Result.(*jobResult); ok && res != nil {
		j.Report = EncodeReport(res.rep, res.checksum)
	}
	return j
}

// ---- handlers ----

func (s *Server) writeJSON(w http.ResponseWriter, route string, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	s.httpReqs(route, status)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
	s.httpReqs("healthz", http.StatusOK)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		s.httpReqs("readyz", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
	s.httpReqs("readyz", http.StatusOK)
}

// admit is the front door that submit and session open share: the drain
// check, the body cap, the decode and the tenant (the X-Tenant header,
// then the body's tenant field, then "default"). When it fails it has
// answered the request, and it returns a nil payload.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, route string) (*jobPayload, string) {
	if !s.ready.Load() {
		s.fail(w, route, errDraining)
		return nil, ""
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	p, tenant, err := decodeSubmitBody(body, s.base, s.cfg.Limits)
	if err != nil {
		s.fail(w, route, err)
		return nil, ""
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		tenant = h
	}
	if tenant == "" {
		tenant = "default"
	}
	return p, tenant
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	const route = "submit"
	p, tenant := s.admit(w, r, route)
	if p == nil {
		return
	}
	snap, err := s.q.Submit(tenant, p, p.deadline)
	if err != nil {
		s.fail(w, route, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	s.writeJSON(w, route, http.StatusAccepted, jobJSON(snap))
}

// finished returns the result of the job the request names. The route
// names what the client asked for ("report" or "placement"). When the job
// is unknown or not finished it has answered the request, and it returns
// nil.
func (s *Server) finished(w http.ResponseWriter, r *http.Request, route string) *jobResult {
	snap, err := s.q.Get(r.PathValue("id"))
	if err == nil {
		if res, _ := snap.Result.(*jobResult); snap.State.Terminal() && res != nil {
			return res
		}
		err = &requestError{fmt.Sprintf("job %s is %s; no %s yet", snap.ID, snap.State, route), errNotFinished}
	}
	s.fail(w, route, err)
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	const route = "status"
	snap, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, route, err)
		return
	}
	s.writeJSON(w, route, http.StatusOK, jobJSON(snap))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	const route = "report"
	res := s.finished(w, r, route)
	if res == nil {
		return
	}
	s.writeJSON(w, route, http.StatusOK, EncodeReport(res.rep, res.checksum))
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	const route = "placement"
	res := s.finished(w, r, route)
	if res == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := iodesign.Write(w, res.d, res.nl); err != nil {
		// Headers are gone; all we can do is log and count.
		s.log.Printf("mrserve: placement write for %s: %v", r.PathValue("id"), err)
		s.httpReqs(route, http.StatusInternalServerError)
		return
	}
	s.httpReqs(route, http.StatusOK)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	const route = "cancel"
	snap, err := s.q.Cancel(r.PathValue("id"))
	if err != nil {
		s.fail(w, route, err)
		return
	}
	s.writeJSON(w, route, http.StatusOK, jobJSON(snap))
}
