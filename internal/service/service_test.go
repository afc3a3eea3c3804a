package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mrlegal/internal/core"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/jobq"
	"mrlegal/internal/verify"
)

// newTestServer builds a server (mutate cfg via mut) and an httptest
// listener over its full mux. Cleanup shuts both down.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Queue:        jobq.Config{Workers: 2, QueueBound: 8, PerTenant: 8, JobTimeout: 30 * time.Second},
		DrainTimeout: 10 * time.Second,
		Log:          log.New(io.Discard, "", 0),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		_ = s.Close()
		ts.Close()
	})
	return s, ts
}

// submit POSTs a submission and returns the HTTP response and decoded
// job (nil for error responses).
func submit(t *testing.T, ts *httptest.Server, tenant, body string) (*http.Response, *JobJSON) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		// Caller reads the error envelope; apiError closes the body.
		return resp, nil
	}
	defer resp.Body.Close()
	var j JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return resp, &j
}

// apiError decodes the {"error": {...}} envelope.
func apiError(t *testing.T, resp *http.Response) ErrorJSON {
	t.Helper()
	defer resp.Body.Close()
	var e struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error envelope: %v", err)
	}
	return e.Error
}

// poll GETs the job until it reaches a terminal state.
func poll(t *testing.T, ts *httptest.Server, id string) *JobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j JobJSON
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return &j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// directReport runs the same design through the library directly — the
// ground truth the service must reproduce byte-identically.
func directReport(t *testing.T, text string, cfg core.Config) (*core.Report, uint64) {
	t.Helper()
	d, _, err := iodesign.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, d.PlacementChecksum()
}

// TestSubmitPollReportPlacement drives the whole happy path: submit a
// design, poll to completion, fetch the report, and check the placement
// checksum is byte-identical to a direct library call on the same input.
func TestSubmitPollReportPlacement(t *testing.T) {
	_, ts := newTestServer(t, nil)
	text := benchText(t, 60, 11)

	resp, job := submit(t, ts, "acme", submitJSON(t, SubmitRequest{DesignText: text}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if job.Tenant != "acme" || job.ID == "" {
		t.Fatalf("job identity: %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Errorf("Location: %q", loc)
	}

	final := poll(t, ts, job.ID)
	if final.State != jobq.Succeeded {
		t.Fatalf("state %v, error %+v", final.State, final.Error)
	}
	if final.Report == nil || final.Started == nil || final.Finished == nil {
		t.Fatalf("terminal job incomplete: %+v", final)
	}

	// The report endpoint serves the same document.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var rj ReportJSON
	err = json.NewDecoder(rresp.Body).Decode(&rj)
	rresp.Body.Close()
	if err != nil || rresp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d %v", rresp.StatusCode, err)
	}

	// Ground truth: the direct library call. The server's base config is
	// DefaultConfig.
	wantRep, wantSum := directReport(t, text, core.DefaultConfig())
	if rj.PlacementChecksum != fmt.Sprintf("%016x", wantSum) {
		t.Errorf("checksum: service %s vs direct %016x", rj.PlacementChecksum, wantSum)
	}
	if rj.Placed != wantRep.Placed || len(rj.Failed) != len(wantRep.Failed) {
		t.Errorf("report mismatch: %+v vs %+v", rj, wantRep)
	}

	// The placement endpoint serves a loadable, legal design whose
	// checksum matches the report.
	presp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/placement")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("placement: %d", presp.StatusCode)
	}
	d2, _, err := iodesign.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("placement not loadable: %v", err)
	}
	if got := fmt.Sprintf("%016x", d2.PlacementChecksum()); got != rj.PlacementChecksum {
		t.Errorf("placement text checksum %s != report %s", got, rj.PlacementChecksum)
	}
	if !verify.Legal(d2, verify.Options{RequirePlaced: len(rj.Failed) == 0, PowerAlignment: true}) {
		t.Error("returned placement is not legal")
	}
}

// TestOverloadAnswers429 fills the worker pool and the queue with gated
// jobs, then checks the next submission is rejected fast with 429 and a
// Retry-After hint — for both the global bound and the per-tenant cap.
func TestOverloadAnswers429(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, func(c *Config) {
		c.Queue = jobq.Config{Workers: 1, QueueBound: 1, PerTenant: 2, JobTimeout: 30 * time.Second}
		c.RetryAfter = 3 * time.Second
		c.testGate = func(ctx context.Context, id string) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	})
	defer close(release)
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)})

	// One running (worker held by the gate), one queued: both bounds full.
	resp1, job1 := submit(t, ts, "a", body)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	waitFor(t, func() bool { return s.Queue().Running() == 1 })
	resp2, _ := submit(t, ts, "b", body)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}

	// Global queue bound trips.
	resp3, _ := submit(t, ts, "c", body)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: %d", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After: %q", ra)
	}
	if e := apiError(t, resp3); e.Code != CodeQueueFull {
		t.Errorf("code: %q", e.Code)
	}

	// Per-tenant cap trips even when the queue has space: cancel the
	// running job, wait until the freed worker has taken the queued job
	// off the queue, then saturate tenant "b".
	delReq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+job1.ID, nil)
	if _, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Queue().Depth() == 0 })
	resp4, _ := submit(t, ts, "b", body) // tenant b now at 2 in-flight
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant b second: %d", resp4.StatusCode)
	}
	resp5, _ := submit(t, ts, "b", body)
	if resp5.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant cap: %d", resp5.StatusCode)
	}
	if e := apiError(t, resp5); e.Code != CodeTenantLimit {
		t.Errorf("code: %q", e.Code)
	}
	if resp5.Header.Get("Retry-After") == "" {
		t.Error("tenant-limit rejection missing Retry-After")
	}
}

// TestSubmitBodyTooLarge checks the body cap answers 413 with the
// body_too_large code. The body is read whole before it is parsed, so an
// over-cap body answers 413 even when its first byte is not JSON.
func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 512 })
	for _, body := range []string{
		submitJSON(t, SubmitRequest{DesignText: benchText(t, 60, 2)}),
		"x" + strings.Repeat(" ", 600),
	} {
		resp, _ := submit(t, ts, "", body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%.20q: status %d", body, resp.StatusCode)
		}
		if e := apiError(t, resp); e.Code != CodeBodyTooLarge {
			t.Errorf("%.20q: code %q", body, e.Code)
		}
	}
}

// TestSubmitMalformed checks decode failures answer 400 with a stable
// code and the connection stays usable.
func TestSubmitMalformed(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, body := range []string{
		"not json at all",
		`{"frobnicate": 1}`,
		`{}`,
		`{"design_text":"design d 200 2000\nrow 0 0 10\nmaster m 0 1 VSS"}`,
	} {
		resp, _ := submit(t, ts, "", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d", body, resp.StatusCode)
		}
		if e := apiError(t, resp); e.Code != CodeBadRequest {
			t.Errorf("%q: code %q", body, e.Code)
		}
	}
}

// TestJobNotFound covers the 404 paths of every job route.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, m := range []struct{ method, path string }{
		{"GET", "/v1/jobs/j-999999"},
		{"GET", "/v1/jobs/j-999999/report"},
		{"GET", "/v1/jobs/j-999999/placement"},
		{"DELETE", "/v1/jobs/j-999999"},
	} {
		req, _ := http.NewRequest(m.method, ts.URL+m.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: %d", m.method, m.path, resp.StatusCode)
		}
		if e := apiError(t, resp); e.Code != CodeJobNotFound {
			t.Errorf("%s %s: code %q", m.method, m.path, e.Code)
		}
	}
}

// TestReportBeforeFinish checks an unfinished job's report answers 409
// with not_finished and a Retry-After hint.
func TestReportBeforeFinish(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, func(c *Config) {
		c.testGate = func(ctx context.Context, id string) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	})
	defer close(release)
	_, job := submit(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)}))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if e := apiError(t, resp); e.Code != CodeNotFinished {
		t.Errorf("code: %q", e.Code)
	}
}

// TestCancelRunningJob cancels a gated running job and checks it reaches
// the canceled state with the job_canceled code.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.testGate = func(ctx context.Context, id string) { <-ctx.Done() }
	})
	_, job := submit(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)}))
	waitFor(t, func() bool { return s.Queue().Running() == 1 })

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := poll(t, ts, job.ID)
	if final.State != jobq.Canceled {
		t.Fatalf("state: %v", final.State)
	}
	if final.Error == nil || final.Error.Code != CodeJobCanceled {
		t.Fatalf("error: %+v", final.Error)
	}
}

// TestJobDeadlinePartialReport checks an expired per-job deadline still
// yields a successful job whose report carries timed_out — the
// best-effort contract end to end.
func TestJobDeadlinePartialReport(t *testing.T) {
	// The gate eats the whole job deadline before the engine starts, so
	// LegalizeBestEffort deterministically sees an expired context and
	// returns the partial (here: empty) report with TimedOut set.
	_, ts := newTestServer(t, func(c *Config) {
		c.testGate = func(ctx context.Context, id string) { <-ctx.Done() }
	})
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 30, 4), DeadlineMS: 50})
	resp, job := submit(t, ts, "", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	final := poll(t, ts, job.ID)
	if final.State != jobq.Succeeded {
		t.Fatalf("state %v (error %+v)", final.State, final.Error)
	}
	if final.Report == nil || !final.Report.TimedOut {
		t.Fatalf("report not marked timed out: %+v", final.Report)
	}
}

// TestHealthAndMetrics checks the probe and exposition routes.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "jobq_jobs_submitted_total") {
		t.Errorf("exposition missing queue metrics:\n%.400s", body)
	}
}

// TestGracefulShutdownDrains checks Close stops admission (readyz and
// submit answer 503) while letting in-flight jobs finish, and returns
// nil when the drain beats the deadline.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, func(c *Config) {
		c.DrainTimeout = 10 * time.Second
		c.testGate = func(ctx context.Context, id string) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	})
	_, job := submit(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)}))
	waitFor(t, func() bool { return s.Queue().Running() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// Admission must stop while the drain is in progress.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, _ := submit(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain rejection missing Retry-After")
	}
	if e := apiError(t, resp); e.Code != CodeShuttingDown {
		t.Errorf("code: %q", e.Code)
	}

	// Release the gate: the in-flight job completes and Close returns nil.
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap, err := s.Queue().Get(job.ID)
	if err != nil || snap.State != jobq.Succeeded {
		t.Fatalf("drained job: %v %v", snap.State, err)
	}
}

// TestShutdownForceCancels checks an expired drain deadline hard-cancels
// stuck jobs instead of hanging Close forever.
func TestShutdownForceCancels(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.DrainTimeout = 50 * time.Millisecond
		c.testGate = func(ctx context.Context, id string) { <-ctx.Done() }
	})
	_, job := submit(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)}))
	waitFor(t, func() bool { return s.Queue().Running() == 1 })

	if err := s.Close(); err == nil {
		t.Fatal("Close reported a clean drain for a stuck job")
	}
	snap, err := s.Queue().Get(job.ID)
	if err != nil || snap.State != jobq.Canceled {
		t.Fatalf("stuck job after forced shutdown: %v %v", snap.State, err)
	}
}

// TestRetryAfterSeconds pins the header to whole seconds (ceil of the
// configured hint, minimum 1).
func TestRetryAfterSeconds(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Queue = jobq.Config{Workers: 1, QueueBound: 1, PerTenant: 1, JobTimeout: time.Second}
		c.RetryAfter = 250 * time.Millisecond
		c.testGate = func(ctx context.Context, id string) { <-ctx.Done() }
	})
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)})
	submit(t, ts, "a", body)
	resp, _ := submit(t, ts, "a", body) // tenant cap
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After: %q", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
