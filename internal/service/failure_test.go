package service

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mrlegal/internal/core"
)

// tooWideDesign is a design text in which one cell is wider than every
// row: best-effort legalization places the rest and leaves that cell
// unplaced.
const tooWideDesign = `design wide 1 1
row 0 0 40
row 1 0 40
master m 2 1 VSS
master HUGE 50 1 VSS
cell a 0 3 0
cell huge 1 0 1
`

// httpRequests returns the mrserve_http_requests_total series of route,
// keyed by status code.
func httpRequests(s *Server, route string) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.obs.Registry().Snapshot().Counters {
		base, labels, ok := strings.Cut(name, "{")
		if !ok || base != "mrserve_http_requests_total" || !strings.Contains(labels, `route="`+route+`"`) {
			continue
		}
		_, code, _ := strings.Cut(labels, `code="`)
		code, _, _ = strings.Cut(code, `"`)
		out[code] = v
	}
	return out
}

// failureAnswer reads the error a response carries: the JSON envelope of
// an error status, or the final frame of a delta stream answered 200.
func failureAnswer(t *testing.T, resp *http.Response) ErrorJSON {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error ErrorJSON `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error envelope (status %d): %v", resp.StatusCode, err)
		}
		return e.Error
	}
	var (
		buf  []byte
		last DeltaFrameJSON
		n    int
	)
	for {
		var err error
		buf, err = readFrame(resp.Body, buf, 1<<20)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("response frame: %v", err)
		}
		if n > 0 && last.Error != nil {
			t.Fatalf("frame after the error frame")
		}
		last = DeltaFrameJSON{}
		if err := json.Unmarshal(buf, &last); err != nil {
			t.Fatalf("response frame JSON: %v", err)
		}
		if last.Error == nil && last.Applied == 0 {
			t.Fatalf("frame %d applied nothing: %+v", n, last)
		}
		n++
	}
	if last.Error == nil {
		t.Fatalf("stream of %d frames ended without an error frame", n)
	}
	return *last.Error
}

// TestFailureContract pins the HTTP answer to failures that the other
// service tests do not reach: the status, the code and message of the
// error, the Retry-After header, and the one mrserve_http_requests_total
// series the request is counted under. A failure after a delta stream
// has sent its first frame travels in-band under HTTP 200 and is counted
// under its own status.
func TestFailureContract(t *testing.T) {
	post := func(url, body string) *http.Request {
		req, err := http.NewRequest("POST", url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	cases := []struct {
		name string
		cfg  func(*Config)
		// req prepares the server and returns the request under test.
		req        func(t *testing.T, s *Server, ts *httptest.Server) *http.Request
		route      string
		status     int // the status counted; the HTTP status too, unless inBand
		inBand     bool
		code       string
		message    string
		retryAfter string
	}{
		{
			name: "placement before the job ends",
			cfg: func(c *Config) {
				c.DrainTimeout = 50 * time.Millisecond
				c.testGate = func(ctx context.Context, id string) { <-ctx.Done() }
			},
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				if resp, job := submit(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 10, 1)})); job == nil {
					t.Fatalf("submit: %d", resp.StatusCode)
				}
				waitFor(t, func() bool { return s.Queue().Running() == 1 })
				req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/j-000001/placement", nil)
				return req
			},
			route: "placement", status: http.StatusConflict, code: CodeNotFinished,
			message: "job j-000001 is running; no placement yet", retryAfter: "1",
		},
		{
			name: "session open over the body cap",
			cfg:  func(c *Config) { c.MaxBodyBytes = 512 },
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				return post(ts.URL+"/v1/sessions", submitJSON(t, SubmitRequest{DesignText: benchText(t, 60, 2)}))
			},
			route: "session_create", status: http.StatusRequestEntityTooLarge, code: CodeBodyTooLarge,
			message: "request body exceeds 512 bytes",
		},
		{
			name: "session open on a design with an unplaceable cell",
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				return post(ts.URL+"/v1/sessions", submitJSON(t, SubmitRequest{DesignText: tooWideDesign}))
			},
			route: "session_create", status: http.StatusConflict, code: CodeNotLegal,
			message: "design is not legal after initial legalization (1 failures): " +
				"core: session requires a fully legal design: cell 1 (huge) is unplaced",
		},
		{
			name: "bad frame after a committed frame",
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				_, sj := createSession(t, ts, "", submitJSON(t, SubmitRequest{DesignText: benchText(t, 120, 11)}))
				if sj == nil {
					t.Fatal("create failed")
				}
				stream := frames(t, `{"deltas":[{"op":"delete","cell":5}]}`, `{"deltas":[]}`)
				return post(ts.URL+"/v1/sessions/"+sj.ID+"/deltas", string(stream))
			},
			route: "session_deltas", status: http.StatusBadRequest, inBand: true, code: CodeBadRequest,
			message: "delta batch is empty",
		},
		{
			name: "delta post while the server drains",
			cfg:  func(c *Config) { c.RetryAfter = 3 * time.Second },
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return post(ts.URL+"/v1/sessions/s-000001/deltas", string(frames(t, `{"deltas":[{"op":"delete","cell":0}]}`)))
			},
			route: "session_deltas", status: http.StatusServiceUnavailable, code: CodeShuttingDown,
			message: "server is draining", retryAfter: "3",
		},
		{
			name: "submit carrying cell_timeout_ms",
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				return post(ts.URL+"/v1/jobs", withConfig(t, benchText(t, 10, 1), `"cell_timeout_ms":5`))
			},
			route: "submit", status: http.StatusBadRequest, code: CodeBadRequest,
			message: `malformed request: json: unknown field "cell_timeout_ms"`,
		},
		{
			name: "session open carrying exhaustive_search",
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				return post(ts.URL+"/v1/sessions", withConfig(t, benchText(t, 10, 1), `"exhaustive_search":true`))
			},
			route: "session_create", status: http.StatusBadRequest, code: CodeBadRequest,
			message: `malformed request: json: unknown field "exhaustive_search"`,
		},
		{
			name: "session open with a zero window",
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				return post(ts.URL+"/v1/sessions", withConfig(t, benchText(t, 10, 1), `"rx":0`))
			},
			route: "session_create", status: http.StatusBadRequest, code: CodeBadRequest,
			message: "config: core: Config.Rx = 0, want 1..100000",
		},
		{
			name: "closing an unknown session",
			req: func(t *testing.T, s *Server, ts *httptest.Server) *http.Request {
				req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/s-999999", nil)
				return req
			},
			route: "session_close", status: http.StatusNotFound, code: CodeSessionNotFound,
			message: `jobq: no such session: "s-999999"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			req := tc.req(t, s, ts)
			before := httpRequests(s, tc.route)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			wantHTTP := tc.status
			if tc.inBand {
				wantHTTP = http.StatusOK
			}
			if resp.StatusCode != wantHTTP {
				resp.Body.Close()
				t.Fatalf("HTTP status %d, want %d", resp.StatusCode, wantHTTP)
			}
			if ra := resp.Header.Get("Retry-After"); ra != tc.retryAfter {
				t.Errorf("Retry-After %q, want %q", ra, tc.retryAfter)
			}
			e := failureAnswer(t, resp)
			if e.Code != tc.code || e.Message != tc.message {
				t.Errorf("error %q %q, want %q %q", e.Code, e.Message, tc.code, tc.message)
			}
			after := httpRequests(s, tc.route)
			counted := strconv.Itoa(tc.status)
			for code, n := range after {
				want := before[code]
				if code == counted {
					want++
				}
				if n != want {
					t.Errorf("%s requests counted under %s: %d, want %d", tc.route, code, n, want)
				}
			}
			if after[counted] == 0 {
				t.Errorf("no %s request counted under %s", tc.route, counted)
			}
		})
	}
}

// TestNewRejectsInvalidBaseConfig: an unusable base config stops the
// server before it listens, instead of failing every job it admits.
func TestNewRejectsInvalidBaseConfig(t *testing.T) {
	base := core.DefaultConfig()
	base.Rx = -5
	s, err := New(Config{BaseCfg: &base, Log: log.New(io.Discard, "", 0)})
	if err == nil {
		s.Close()
		t.Fatal("New accepted base config Rx = -5")
	}
	if want := "core: Config.Rx = -5, want 1..100000"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
