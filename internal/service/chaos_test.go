package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mrlegal/internal/core"
	"mrlegal/internal/faultinject"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/jobq"
)

// TestChaosServiceUnderFaultsAndOverload is the acceptance scenario for
// the job server: many concurrent clients hammering a small server while
// the fault injector kills workers at job start, fails jobs at finish,
// and corrupts cell insertions mid-run. The invariants:
//
//   - submissions answer 202 or 429 (+Retry-After) — never 5xx, never hang;
//   - every accepted job reaches a terminal state;
//   - succeeded jobs report a placement checksum byte-identical to a
//     direct library call with the same design and fault schedule;
//   - killed/failed jobs carry a stable error code;
//   - the server then drains and closes cleanly.
func TestChaosServiceUnderFaultsAndOverload(t *testing.T) {
	const (
		clients   = 120
		benches   = 6
		tenants   = 5
		cellFault = 50
	)

	s, err := New(Config{
		Queue: jobq.Config{
			Workers:    8,
			QueueBound: 32,
			PerTenant:  8,
		},
		Limits:       Limits{MaxDeadline: 30 * time.Second},
		DrainTimeout: 30 * time.Second,
		Log:          log.New(io.Discard, "", 0),
		Faults: &faultinject.JobInjector{
			PanicStartEvery: 7,
			FailFinishEvery: 11,
			CellFaultEvery:  cellFault,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A small pool of distinct designs; each client submits one of them.
	texts := make([]string, benches)
	for i := range texts {
		texts[i] = benchText(t, 30+5*i, int64(100+i))
	}

	// Ground truth per bench: the direct library call with the same base
	// config and the same per-job cell-fault schedule the service wires up
	// (a fresh injector per job makes this deterministic).
	wantSum := make([]string, benches)
	wantFailed := make([]int, benches)
	for i, text := range texts {
		cfg := core.DefaultConfig()
		cfg.Faults = &faultinject.Injector{FailInsertEvery: cellFault}
		rep, sum := directReport(t, text, cfg)
		wantSum[i] = fmt.Sprintf("%016x", sum)
		wantFailed[i] = len(rep.Failed)
	}

	var (
		mu       sync.Mutex
		accepted = make(map[string]int) // job ID -> bench index
		rejects  int
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			bench := i % benches
			body := submitJSON(t, SubmitRequest{DesignText: texts[bench]})
			tenant := fmt.Sprintf("t%d", i%tenants)
			// Retry a bounded number of times on backpressure; give up
			// counting it as a rejection after that.
			for attempt := 0; ; attempt++ {
				req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					var j JobJSON
					err := jsonDecode(resp.Body, &j)
					resp.Body.Close()
					if err != nil || j.ID == "" {
						t.Errorf("client %d: bad 202 body: %v", i, err)
						return
					}
					mu.Lock()
					accepted[j.ID] = bench
					mu.Unlock()
					return
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("client %d: 429 without Retry-After", i)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if attempt >= 20 {
						mu.Lock()
						rejects++
						mu.Unlock()
						return
					}
					time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
				default:
					t.Errorf("client %d: unexpected status %d", i, resp.StatusCode)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if len(accepted) == 0 {
		t.Fatal("no submissions were accepted")
	}
	t.Logf("accepted %d, gave up after retries %d", len(accepted), rejects)

	// Every accepted job reaches a terminal state, and each terminal
	// outcome satisfies its contract.
	var succeeded, panicked, failed int
	for id, bench := range accepted {
		final := poll(t, ts, id)
		switch final.State {
		case jobq.Succeeded:
			succeeded++
			if final.Report == nil {
				t.Fatalf("job %s succeeded without a report", id)
			}
			if final.Report.PlacementChecksum != wantSum[bench] {
				t.Errorf("job %s: checksum %s, direct run %s",
					id, final.Report.PlacementChecksum, wantSum[bench])
			}
			if len(final.Report.Failed) != wantFailed[bench] {
				t.Errorf("job %s: %d failed cells, direct run %d",
					id, len(final.Report.Failed), wantFailed[bench])
			}
		case jobq.Failed:
			failed++
			if final.Error == nil {
				t.Fatalf("job %s failed without an error", id)
			}
			switch final.Error.Code {
			case CodeJobPanicked:
				panicked++
			case CodeInternal: // injected finish failure
			default:
				t.Errorf("job %s: unexpected failure code %q", id, final.Error.Code)
			}
		default:
			t.Errorf("job %s: unexpected terminal state %v", id, final.State)
		}
	}
	t.Logf("succeeded %d, panicked %d, other failures %d",
		succeeded, panicked, failed-panicked)
	if succeeded == 0 {
		t.Error("no job survived the fault schedule")
	}
	if inj := s.cfg.Faults; inj.Panics() > 0 && panicked == 0 {
		t.Error("injector panicked workers but no job reported job_panicked")
	}

	// Placement spot-check on one survivor: the served text reloads to the
	// reported checksum.
	for id, bench := range accepted {
		snap, err := s.Queue().Get(id)
		if err != nil || snap.State != jobq.Succeeded {
			continue
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/placement")
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := iodesign.Read(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("placement of %s unreadable: %v", id, err)
		}
		if got := fmt.Sprintf("%016x", d.PlacementChecksum()); got != wantSum[bench] {
			t.Errorf("served placement checksum %s, want %s", got, wantSum[bench])
		}
		break
	}

	// With all jobs terminal the drain is trivial — Close must be clean.
	if err := s.Close(); err != nil {
		t.Fatalf("Close after chaos: %v", err)
	}
}

// TestChaosShutdownDuringLoad closes the server while jobs are still
// queued and running: admission must flip to 503, and Close must return
// once the backlog is drained or canceled — no deadlock either way.
func TestChaosShutdownDuringLoad(t *testing.T) {
	s, err := New(Config{
		Queue: jobq.Config{
			Workers:    4,
			QueueBound: 64,
			PerTenant:  64,
		},
		Limits:       Limits{MaxDeadline: 30 * time.Second},
		DrainTimeout: 30 * time.Second,
		Log:          log.New(io.Discard, "", 0),
		Faults:       &faultinject.JobInjector{PanicStartEvery: 5, CellFaultEvery: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 80, 9)})
	ids := make(chan string, 64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // server may already be closing
			}
			if resp.StatusCode == http.StatusAccepted {
				var j JobJSON
				if jsonDecode(resp.Body, &j) == nil {
					ids <- j.ID
				}
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
		}(i)
	}

	// Close mid-flight.
	time.Sleep(5 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	wg.Wait()
	close(ids)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Close deadlocked")
	}

	// Every accepted job is terminal after Close returns.
	for id := range ids {
		snap, err := s.Queue().Get(id)
		if err != nil {
			t.Fatalf("job %s lost: %v", id, err)
		}
		if !snap.State.Terminal() {
			t.Errorf("job %s left in state %v after Close", id, snap.State)
		}
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
