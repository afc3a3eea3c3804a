// Command servesmoke is the CI end-to-end exercise for mrserve: it
// builds and starts the real binary, submits a generated-and-globally-
// placed benchmark over HTTP, polls the job to completion, and checks
// the served placement checksum is byte-identical to running the
// library directly on the same input. It then opens an ECO session on
// the same input and streams a few delta frames, one of them a
// resize-only shrink, checking every frame's checksum against an
// in-process core.Session fed the same deltas and the last one against
// a checkpoint. It finishes by sending SIGTERM and requiring a clean
// (exit 0) graceful shutdown.
//
// Run from the repository root:
//
//	go run ./scripts/servesmoke
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/experiments"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Build the real binary — the smoke test must cover main(), not just
	// the service package.
	bin := filepath.Join(tmp, "mrserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mrserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build mrserve: %w", err)
	}

	addrFile := filepath.Join(tmp, "addr")
	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-workers", "2",
		"-drain-timeout", "30s",
	)
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return fmt.Errorf("start mrserve: %w", err)
	}
	// On any failure path make sure the server dies with us.
	defer srv.Process.Kill()

	addr, err := waitForAddr(addrFile, 10*time.Second)
	if err != nil {
		return err
	}
	base := "http://" + addr

	// A small Table-1-style input: generated netlist, global placement.
	p := experiments.Prepare(bengen.Spec{
		Name: "smoke", NumCells: 400, Density: 0.5, Seed: 1,
	}, 0)
	var buf bytes.Buffer
	if err := iodesign.Write(&buf, p.Bench.D, p.Bench.NL); err != nil {
		return err
	}
	text := buf.String()

	// Ground truth: the library, directly, with the server's defaults.
	d, _, err := iodesign.Read(strings.NewReader(text))
	if err != nil {
		return err
	}
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		return err
	}
	if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
		return err
	}
	want := fmt.Sprintf("%016x", d.PlacementChecksum())

	// Submit over the wire and poll to a terminal state.
	body, err := json.Marshal(map[string]any{"design_text": text})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d, decode %v", resp.StatusCode, err)
	}
	fmt.Printf("servesmoke: submitted job %s\n", job.ID)

	var report struct {
		PlacementChecksum string `json:"placement_checksum"`
		Placed            int    `json:"placed"`
		TimedOut          bool   `json:"timed_out"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s never finished", job.ID)
		}
		r, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return err
		}
		var status struct {
			State string `json:"state"`
			Error *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		err = json.NewDecoder(r.Body).Decode(&status)
		r.Body.Close()
		if err != nil {
			return err
		}
		if status.State == "succeeded" {
			break
		}
		if status.State == "failed" || status.State == "canceled" {
			return fmt.Errorf("job %s ended %s: %+v", job.ID, status.State, status.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	r, err := http.Get(base + "/v1/jobs/" + job.ID + "/report")
	if err != nil {
		return err
	}
	err = json.NewDecoder(r.Body).Decode(&report)
	r.Body.Close()
	if err != nil || r.StatusCode != http.StatusOK {
		return fmt.Errorf("report: status %d, decode %v", r.StatusCode, err)
	}

	if report.PlacementChecksum != want {
		return fmt.Errorf("checksum mismatch: service %s, direct %s",
			report.PlacementChecksum, want)
	}
	fmt.Printf("servesmoke: checksum %s matches direct run (placed %d)\n",
		report.PlacementChecksum, report.Placed)

	// The placement text must reload to the same checksum.
	pr, err := http.Get(base + "/v1/jobs/" + job.ID + "/placement")
	if err != nil {
		return err
	}
	d2, _, err := iodesign.Read(pr.Body)
	pr.Body.Close()
	if err != nil {
		return fmt.Errorf("placement endpoint: %w", err)
	}
	if got := fmt.Sprintf("%016x", d2.PlacementChecksum()); got != want {
		return fmt.Errorf("served placement checksum %s, want %s", got, want)
	}

	if err := sessionLeg(base, text, l); err != nil {
		return fmt.Errorf("session: %w", err)
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("mrserve exited uncleanly after SIGTERM: %w", err)
		}
	case <-time.After(45 * time.Second):
		return fmt.Errorf("mrserve did not exit within 45s of SIGTERM")
	}
	fmt.Println("servesmoke: graceful shutdown OK")
	return nil
}

// sessionLeg opens a session on text, streams four delta frames in one
// request (moves, a resize-only shrink, inserts with a delete, moves)
// and takes a checkpoint. A twin session over l, the direct run's
// legalizer of the same input, is fed the same decoded deltas; its
// design, digested from scratch, must match the open's checksum and
// every frame's. The shrink must change the checksum, and the checkpoint
// must report a legal fixed point at the last frame's checksum.
func sessionLeg(base, text string, l *core.Legalizer) error {
	twin, err := core.NewSession(l)
	if err != nil {
		return err
	}
	d := l.D
	sum := func() string { return fmt.Sprintf("%016x", d.PlacementChecksum()) }

	body, err := json.Marshal(map[string]any{"design_text": text})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var opened service.SessionJSON
	err = json.NewDecoder(resp.Body).Decode(&opened)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated || opened.Report == nil {
		return fmt.Errorf("open: status %d, decode %v", resp.StatusCode, err)
	}
	if got := opened.Report.PlacementChecksum; got != sum() {
		return fmt.Errorf("open checksum %s, twin %s", got, sum())
	}

	// Four batches over distinct live movable cells, chosen up front.
	var ids []int
	for i := range d.Cells {
		if c := &d.Cells[i]; !c.Fixed && c.W > 1 {
			ids = append(ids, i)
		}
	}
	if len(ids) < 12 {
		return fmt.Errorf("only %d movable cells wider than a site", len(ids))
	}
	cell := func(i int) *design.Cell { return &d.Cells[ids[i]] }
	move := func(i, dx int) service.DeltaJSON {
		x, y := float64(cell(i).X+dx), float64(cell(i).Y)
		return service.DeltaJSON{Op: "move", Cell: &ids[i], X: &x, Y: &y}
	}
	w := cell(5).W - 1
	master := cell(6).Master
	ix, iy := float64(cell(6).X+2), float64(cell(6).Y)
	batches := [][]service.DeltaJSON{
		{move(0, 3), move(1, -4), move(2, 5), move(3, -2), move(4, 6)},
		{{Op: "resize", Cell: &ids[5], W: &w}},
		{{Op: "insert", Master: &master, X: &ix, Y: &iy}, {Op: "insert", Master: &master, X: &ix, Y: &iy}, {Op: "delete", Cell: &ids[7]}},
		{move(8, 4), move(9, -3), move(10, 2)},
	}
	var stream bytes.Buffer
	var payloads [][]byte
	for _, b := range batches {
		payload, err := json.Marshal(service.DeltaBatchJSON{Deltas: b})
		if err != nil {
			return err
		}
		binary.Write(&stream, binary.BigEndian, uint32(len(payload)))
		stream.Write(payload)
		payloads = append(payloads, payload)
	}

	resp, err = http.Post(base+"/v1/sessions/"+opened.ID+"/deltas", "application/vnd.mrlegal.frames", &stream)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("deltas: status %d", resp.StatusCode)
	}
	prev := opened.Report.PlacementChecksum
	for f, payload := range payloads {
		var n uint32
		if err := binary.Read(resp.Body, binary.BigEndian, &n); err != nil {
			return fmt.Errorf("frame %d: header: %w", f, err)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return fmt.Errorf("frame %d: body: %w", f, err)
		}
		var fr service.DeltaFrameJSON
		if err := json.Unmarshal(b, &fr); err != nil || fr.Error != nil {
			return fmt.Errorf("frame %d: %s (decode error %v)", f, b, err)
		}
		deltas, err := service.DecodeDeltaBatch(payload, service.Limits{})
		if err != nil {
			return err
		}
		if _, err := twin.ApplyDelta(context.Background(), deltas); err != nil {
			return fmt.Errorf("frame %d: twin: %w", f, err)
		}
		if fr.PlacementChecksum != sum() {
			return fmt.Errorf("frame %d: checksum %s, twin %s", f, fr.PlacementChecksum, sum())
		}
		if f == 1 && fr.PlacementChecksum == prev {
			return fmt.Errorf("frame %d: the resize-only frame left the checksum at %s", f, prev)
		}
		prev = fr.PlacementChecksum
	}

	resp, err = http.Post(base+"/v1/sessions/"+opened.ID+"/checkpoint?oracle=1", "application/json", nil)
	if err != nil {
		return err
	}
	var cp service.CheckpointJSON
	err = json.NewDecoder(resp.Body).Decode(&cp)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint: status %d, decode %v", resp.StatusCode, err)
	}
	if cp.PlacementChecksum != prev || !cp.Legal || cp.FixedPoint == nil || !*cp.FixedPoint {
		return fmt.Errorf("checkpoint %+v, want legal, a fixed point and checksum %s", cp, prev)
	}
	fmt.Printf("servesmoke: session %s: %d frames match the in-process twin, checkpoint %s\n",
		opened.ID, len(payloads), cp.PlacementChecksum)
	return nil
}

// waitForAddr polls for the -addr-file the server writes once listening.
func waitForAddr(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(path)
		if err == nil && len(bytes.TrimSpace(b)) > 0 {
			return string(bytes.TrimSpace(b)), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("address file %s never appeared", path)
}
