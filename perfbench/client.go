package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mrlegal/internal/service"
)

// client is the benchmark's one HTTP client: a closed loop on at most two
// connections to one in-process server.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// rejected reports whether err is an admission refusal (429 or 503).
func rejected(err error) bool {
	he, ok := err.(*httpError)
	return ok && (he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable)
}

// do sends one request and returns the body of a 2xx answer.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, &httpError{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	return b, nil
}

// doJSON sends one request and decodes a 2xx JSON answer into v.
func (c *client) doJSON(method, path string, body []byte, v any) error {
	b, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// jobOp is one submit-poll-report round trip and what the client saw.
type jobOp struct {
	t0, submitted, seen, reportStart, end time.Time
	polls                                 int
	job                                   service.JobJSON
	report                                service.ReportJSON
}

// runJob submits body and polls with a 1 ms sleep until the job is
// terminal, then fetches its report.
func (c *client) runJob(body []byte) (*jobOp, error) {
	op := &jobOp{t0: time.Now()}
	var sub service.JobJSON
	if err := c.doJSON("POST", "/v1/jobs", body, &sub); err != nil {
		return nil, err
	}
	op.submitted = time.Now()
	for {
		op.polls++
		if err := c.doJSON("GET", "/v1/jobs/"+sub.ID, nil, &op.job); err != nil {
			return nil, err
		}
		if op.job.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	op.seen = time.Now()
	op.reportStart = op.seen
	if err := c.doJSON("GET", "/v1/jobs/"+sub.ID+"/report", nil, &op.report); err != nil {
		return nil, err
	}
	op.end = time.Now()
	return op, nil
}

// scrape reads the server's Prometheus exposition into series → value.
func (c *client) scrape() (map[string]float64, error) {
	b, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
