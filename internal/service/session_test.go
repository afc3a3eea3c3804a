package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/jobq"
	"mrlegal/internal/obs"
	"mrlegal/internal/segment"
)

// createSession POSTs a session-create submission and returns the HTTP
// response plus the decoded resource (nil for error responses).
func createSession(t *testing.T, ts *httptest.Server, tenant, body string) (*http.Response, *SessionJSON) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions", strings.NewReader(body))
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
	if resp.StatusCode != http.StatusCreated {
		return resp, nil
	}
	defer resp.Body.Close()
	var sj SessionJSON
	if err := json.NewDecoder(resp.Body).Decode(&sj); err != nil {
		t.Fatalf("create response: %v", err)
	}
	return resp, &sj
}

// frames packs delta-batch JSON documents into the length-prefixed wire
// stream.
func frames(t *testing.T, batches ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, b := range batches {
		if err := writeFrame(&buf, []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// postDeltas streams a frame sequence to a session and decodes every
// response frame. For non-200 responses the decoded error envelope is
// returned in errJSON.
func postDeltas(t *testing.T, ts *httptest.Server, id string, stream []byte) (status int, out []DeltaFrameJSON, errJSON *ErrorJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/deltas", "application/vnd.mrlegal.frames", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error ErrorJSON `json:"error"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&e); derr != nil {
			t.Fatalf("error envelope (status %d): %v", resp.StatusCode, derr)
		}
		return resp.StatusCode, nil, &e.Error
	}
	var buf []byte
	for {
		buf, err = readFrame(resp.Body, buf, 1<<20)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("response frame: %v", err)
		}
		var fr DeltaFrameJSON
		if derr := json.Unmarshal(buf, &fr); derr != nil {
			t.Fatalf("response frame JSON: %v", derr)
		}
		out = append(out, fr)
	}
	return resp.StatusCode, out, nil
}

// checkpoint POSTs a checkpoint request (oracle toggles the fixed-point
// run).
func checkpoint(t *testing.T, ts *httptest.Server, id string, oracle bool) *CheckpointJSON {
	t.Helper()
	url := ts.URL + "/v1/sessions/" + id + "/checkpoint"
	if oracle {
		url += "?oracle=1"
	}
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d", resp.StatusCode)
	}
	var cp CheckpointJSON
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	return &cp
}

func TestSessionEndpointLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 120, 11)})

	resp, sj := createSession(t, ts, "acme", body)
	if sj == nil {
		t.Fatalf("create failed: %v", apiError(t, resp))
	}
	if sj.Cells != 120 || sj.Report == nil || len(sj.Report.Failed) != 0 {
		t.Fatalf("unexpected session resource: %+v", sj)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+sj.ID {
		t.Fatalf("Location = %q", loc)
	}

	// A mixed batch, then a second batch, each a separate frame: the
	// stream must answer one response frame per request frame, every
	// post-batch checksum advancing the placement.
	stream := frames(t,
		`{"deltas":[{"op":"move","cell":3,"x":40,"y":2},{"op":"insert","master":0,"x":10,"y":1,"name":"eco0"},{"op":"resize","cell":7,"w":2}]}`,
		`{"deltas":[{"op":"delete","cell":5}]}`,
	)
	status, out, ej := postDeltas(t, ts, sj.ID, stream)
	if ej != nil {
		t.Fatalf("deltas failed: %d %+v", status, ej)
	}
	if len(out) != 2 {
		t.Fatalf("got %d response frames, want 2", len(out))
	}
	if out[0].Applied != 3 || out[1].Applied != 1 {
		t.Fatalf("applied = %d,%d", out[0].Applied, out[1].Applied)
	}
	for i, fr := range out {
		if fr.Error != nil {
			t.Fatalf("frame %d carries error %+v", i, fr.Error)
		}
		if fr.DirtyCells == 0 || fr.PlacementChecksum == "" {
			t.Fatalf("frame %d not accounted: %+v", i, fr)
		}
	}
	ins := out[0].Results[1]
	if ins.Op != "insert" || ins.Cell != 120 || !ins.Placed {
		t.Fatalf("insert result = %+v", ins)
	}

	// Checkpoint with the oracle: still legal, checksum matches the last
	// frame, and full legalization over the result is a no-op.
	cp := checkpoint(t, ts, sj.ID, true)
	if !cp.Legal || cp.Violations != 0 {
		t.Fatalf("checkpoint reports violations: %+v", cp)
	}
	if cp.PlacementChecksum != out[1].PlacementChecksum {
		t.Fatalf("checksum drifted: checkpoint %s, last frame %s", cp.PlacementChecksum, out[1].PlacementChecksum)
	}
	if cp.FixedPoint == nil || !*cp.FixedPoint {
		t.Fatalf("fixed-point oracle failed: %+v", cp.FixedPoint)
	}
	if cp.Batches != 2 || cp.Deltas != 4 {
		t.Fatalf("stats: %+v", cp)
	}

	// Close, then every route answers 404 session_not_found.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+sj.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("close status = %d", dresp.StatusCode)
	}
	status, _, ej = postDeltas(t, ts, sj.ID, frames(t, `{"deltas":[{"op":"delete","cell":1}]}`))
	if status != http.StatusNotFound || ej == nil || ej.Code != CodeSessionNotFound {
		t.Fatalf("deltas after close: %d %+v", status, ej)
	}
}

func TestSessionDeltaErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, sj := createSession(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 80, 5)}))
	if sj == nil {
		t.Fatal("create failed")
	}
	base := checkpoint(t, ts, sj.ID, false)

	cases := []struct {
		name   string
		stream []byte
		status int
		code   string
	}{
		{"malformed JSON", frames(t, `{"deltas":[{`), http.StatusBadRequest, CodeBadRequest},
		{"unknown field", frames(t, `{"deltas":[{"op":"move","cell":1,"x":1,"y":1,"frob":3}]}`), http.StatusBadRequest, CodeBadRequest},
		{"stray field for op", frames(t, `{"deltas":[{"op":"delete","cell":1,"w":4}]}`), http.StatusBadRequest, CodeBadRequest},
		{"empty batch", frames(t, `{"deltas":[]}`), http.StatusBadRequest, CodeBadRequest},
		{"truncated frame", []byte{0, 0, 0, 99, 'x'}, http.StatusBadRequest, CodeBadRequest},
		{"oversized frame", []byte{0xff, 0xff, 0xff, 0xff}, http.StatusBadRequest, CodeBadRequest},
		{"unknown cell", frames(t, `{"deltas":[{"op":"move","cell":99999,"x":1,"y":1}]}`), http.StatusBadRequest, CodeUnknownCell},
		{"bad width", frames(t, `{"deltas":[{"op":"resize","cell":1,"w":0}]}`), http.StatusBadRequest, CodeBadRequest},
		{"unplaceable resize", frames(t, fmt.Sprintf(`{"deltas":[{"op":"move","cell":2,"x":1,"y":1}, {"op":"resize","cell":1,"w":%d}]}`, 1<<30)), http.StatusConflict, CodeCellTooWide},
	}
	for _, tc := range cases {
		status, out, ej := postDeltas(t, ts, sj.ID, tc.stream)
		if ej == nil {
			t.Fatalf("%s: accepted (%d, %d frames)", tc.name, status, len(out))
		}
		if status != tc.status || ej.Code != tc.code {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, status, ej.Code, tc.status, tc.code)
		}
	}

	// Every rejected batch rolled back: the placement never moved.
	cp := checkpoint(t, ts, sj.ID, false)
	if cp.PlacementChecksum != base.PlacementChecksum {
		t.Fatalf("rejected batches mutated the placement: %s -> %s", base.PlacementChecksum, cp.PlacementChecksum)
	}
	if !cp.Legal {
		t.Fatal("session no longer legal")
	}
}

// failAfterNarrowing is a core.FaultInjector that corrupts a session's
// grid behind its undo log: at every grid insert of cell fail it narrows
// seg to span, so that seg no longer holds the slot a moved cell must
// return to, and fails the insert.
type failAfterNarrowing struct {
	fail design.CellID
	seg  *segment.Segment
	span geom.Span
}

func (f *failAfterNarrowing) OnGridInsert(id design.CellID) error {
	if id != f.fail {
		return nil
	}
	f.seg.Span = f.span
	return errors.New("injected insert failure")
}

func (f *failAfterNarrowing) OnRealize(design.CellID) {}
func (f *failAfterNarrowing) OnAudit() bool           { return false }

// TestSessionRollbackFailureIs500 checks that a batch whose rollback
// fails is answered 500 rollback_failed, not 409: the session's
// placement is no longer the previous legal one. The batch moves cell a
// and then cell b; b's inserts all fail, and before the first of them a's
// old slot drops out of its segment, so the abort cannot restore a.
func TestSessionRollbackFailureIs500(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	_, sj := createSession(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 80, 5)}))
	if sj == nil {
		t.Fatal("create failed")
	}
	sess, err := srv.Sessions().Get(sj.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Arm the fault and write the batch under the session's lock; a moves
	// to b's slot and b to a's.
	var batch string
	if err := sess.Do(func(payload any) error {
		l := payload.(*core.Session).Legalizer()
		var a, b *design.Cell
		for i := range l.D.Cells {
			if c := &l.D.Cells[i]; !c.Fixed && c.H == 1 {
				if a == nil {
					a = c
				} else if b == nil && c.Y != a.Y {
					b = c
				}
			}
		}
		seg := l.G.SegmentAt(a.Y, a.X)
		l.Cfg.MaxRounds = 1
		l.Cfg.Faults = &failAfterNarrowing{fail: b.ID, seg: seg, span: geom.Span{Lo: a.X + 1, Hi: seg.Span.Hi}}
		batch = fmt.Sprintf(`{"deltas":[{"op":"move","cell":%d,"x":%d,"y":%d},{"op":"move","cell":%d,"x":%d,"y":%d}]}`,
			a.ID, b.X, b.Y, b.ID, a.X, a.Y)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	status, _, ej := postDeltas(t, ts, sj.ID, frames(t, batch))
	if status != http.StatusInternalServerError || ej == nil || ej.Code != CodeRollbackFailed {
		t.Fatalf("got %d %+v, want 500 %s", status, ej, CodeRollbackFailed)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	_, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 99, 'x'}), nil, 1<<20)
	if err == nil || !strings.Contains(err.Error(), "(1 of 99 bytes)") {
		t.Fatalf("got %v, want a truncated-body error reporting 1 of 99 bytes", err)
	}
}

func TestSessionAdmissionCaps(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.Sessions = jobq.SessionConfig{MaxSessions: 2, PerTenant: 1}
	})
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 40, 7)})

	if _, sj := createSession(t, ts, "a", body); sj == nil {
		t.Fatal("first create failed")
	}
	resp, sj := createSession(t, ts, "a", body)
	if sj != nil {
		t.Fatal("per-tenant cap not enforced")
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusTooManyRequests || e.Code != CodeSessionLimit {
		t.Fatalf("per-tenant overflow: %d %+v", resp.StatusCode, e)
	}
	if _, sj := createSession(t, ts, "b", body); sj == nil {
		t.Fatal("second tenant create failed")
	}
	resp, sj = createSession(t, ts, "c", body)
	if sj != nil {
		t.Fatal("global cap not enforced")
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusTooManyRequests || e.Code != CodeSessionLimit {
		t.Fatalf("global overflow: %d %+v", resp.StatusCode, e)
	}
}

// TestSessionOpenOverCapRunsNoEngine checks a session open takes its slot
// before the engine runs: an open over either cap answers 429 without a
// legalization, and concurrent opens against one slot legalize once.
func TestSessionOpenOverCapRunsNoEngine(t *testing.T) {
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 40, 7)})
	// newServer returns a one-session server and its count of engine
	// runs (the mrlegal_run_seconds histogram's).
	newServer := func(t *testing.T) (*httptest.Server, func() int64) {
		ob := obs.New(obs.Options{})
		_, ts := newTestServer(t, func(c *Config) {
			base := core.DefaultConfig()
			base.Obs = ob
			c.Obs, c.BaseCfg = ob, &base
			c.Sessions = jobq.SessionConfig{MaxSessions: 1, PerTenant: 1}
		})
		return ts, func() int64 { return ob.Registry().Snapshot().Hists["mrlegal_run_seconds"].Count }
	}

	t.Run("over_cap", func(t *testing.T) {
		ts, runs := newServer(t)
		if _, sj := createSession(t, ts, "a", body); sj == nil {
			t.Fatal("first open failed")
		}
		before := runs()
		for _, tenant := range []string{"a", "b"} { // the tenant cap, then the global one
			resp, sj := createSession(t, ts, tenant, body)
			if sj != nil {
				t.Fatalf("open by %s over the cap succeeded", tenant)
			}
			if e := apiError(t, resp); resp.StatusCode != http.StatusTooManyRequests || e.Code != CodeSessionLimit {
				t.Fatalf("open by %s over the cap: %d %+v", tenant, resp.StatusCode, e)
			}
		}
		if got := runs() - before; got != 0 {
			t.Errorf("two over-cap opens ran %d legalizations, want 0", got)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		ts, runs := newServer(t)
		const m = 6
		codes := make([]int, m)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", strings.NewReader(body))
				req.Header.Set("X-Tenant", fmt.Sprintf("t%d", i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		created := 0
		for _, c := range codes {
			switch c {
			case http.StatusCreated:
				created++
			case http.StatusTooManyRequests:
			default:
				t.Errorf("open answered %d, want 201 or 429", c)
			}
		}
		if created != 1 {
			t.Errorf("%d of %d concurrent opens got 201, want 1", created, m)
		}
		if got := runs(); got != 1 {
			t.Errorf("%d concurrent opens ran %d legalizations, want 1", m, got)
		}
	})
}

func TestSessionUnknownIDAndBadCreate(t *testing.T) {
	_, ts := newTestServer(t, nil)

	status, _, ej := postDeltas(t, ts, "s-999999", frames(t, `{"deltas":[{"op":"delete","cell":0}]}`))
	if status != http.StatusNotFound || ej.Code != CodeSessionNotFound {
		t.Fatalf("unknown session: %d %+v", status, ej)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/s-999999/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint on unknown session: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A body without design_text, as a JSON design or a Bookshelf
	// benchmark, is as malformed as a design_text of the wrong type.
	for _, body := range []string{`{"design_text": 5}`, `{}`, designJSONBody, bookshelfBody} {
		resp, sj := createSession(t, ts, "", body)
		if sj != nil {
			t.Fatalf("malformed create %.40q accepted", body)
		}
		if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Fatalf("malformed create %.40q: %d %+v", body, resp.StatusCode, e)
		}
	}
}

func TestSessionDrainOnShutdown(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_, sj := createSession(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 40, 9)}))
	if sj == nil {
		t.Fatal("create failed")
	}
	if got := s.Sessions().Active(); got != 1 {
		t.Fatalf("Active = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Sessions().Active(); got != 0 {
		t.Fatalf("Active after Close = %d", got)
	}
	// Create after drain answers 503.
	resp, sj := createSession(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 40, 9)}))
	if sj != nil {
		t.Fatal("create accepted during shutdown")
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusServiceUnavailable || e.Code != CodeShuttingDown {
		t.Fatalf("create during shutdown: %d %+v", resp.StatusCode, e)
	}
}

// TestCloseCancelsSessionOpens closes a started server while a session
// open is still legalizing: a dense 10,000-cell design with die-sized
// windows and exact evaluation, which runs for many seconds. Close must
// give the open the drain deadline, then cancel it and wait for it to
// unwind, and return nil within about a second more; by then the open
// must have answered 503 shutting_down.
func TestCloseCancelsSessionOpens(t *testing.T) {
	const drain = 500 * time.Millisecond
	s, err := New(Config{
		Limits:       Limits{MaxDeadline: time.Minute},
		DrainTimeout: drain,
		Log:          log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	b := bengen.Generate(bengen.Spec{Name: "slow", NumCells: 10000, Density: 0.85, Seed: 3})
	var text bytes.Buffer
	if err := iodesign.Write(&text, b.D, b.NL); err != nil {
		t.Fatal(err)
	}
	body := withConfig(t, text.String(), `"rx":100000,"ry":10000,"exact_eval":true`)
	opened := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post("http://"+s.Addr()+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
		}
		opened <- resp
	}()
	for wait := time.Now().Add(10 * time.Second); s.Sessions().ActiveFor("default") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatal("the open never took its slot")
		}
	}

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > drain+time.Second {
		t.Errorf("Close took %v with a %v drain deadline", took, drain)
	}
	if n := httpRequests(s, "session_create")["503"]; n != 1 {
		t.Errorf("the open had answered 503 %d times when Close returned, want once", n)
	}
	select {
	case resp := <-opened:
		if resp == nil {
			return
		}
		if e := apiError(t, resp); resp.StatusCode != http.StatusServiceUnavailable || e.Code != CodeShuttingDown {
			t.Fatalf("open during shutdown: %d %+v", resp.StatusCode, e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the open had no answer 5 s after Close returned")
	}
}
