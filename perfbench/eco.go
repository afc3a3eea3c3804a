package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/service"
)

const (
	// ecoCells is the session design size.
	ecoCells = 50_000
	// ecoFrameSeconds is the nominal mean wall of one frame.
	ecoFrameSeconds = 0.008
	// ecoQualityFrames is the stream prefix the deterministic metrics are
	// read from; every run applies at least this many frames.
	ecoQualityFrames = 500
	// ecoChunk is the frame count of one cells_per_s sample: a block
	// with its one large frame.
	ecoChunk = ecoBlock
)

// deltaStream is one open full-duplex POST /v1/sessions/{id}/deltas
// exchange: frames go out on a pipe, answers come back on the response.
type deltaStream struct {
	pw   *io.PipeWriter
	resp chan streamResp
	body io.ReadCloser
	br   *bufio.Reader
	buf  []byte
}

type streamResp struct {
	r   *http.Response
	err error
}

func openStream(c *client, id string) (*deltaStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", c.base+"/v1/sessions/"+id+"/deltas", pr)
	if err != nil {
		return nil, err
	}
	s := &deltaStream{pw: pw, resp: make(chan streamResp, 1)}
	go func() {
		r, err := c.http.Do(req)
		s.resp <- streamResp{r, err}
	}()
	return s, nil
}

// exchange writes one frame and reads the answer frame into a reused
// buffer. The response headers arrive with the first answer.
func (s *deltaStream) exchange(frame []byte) ([]byte, error) {
	if _, err := s.pw.Write(frame); err != nil {
		return nil, fmt.Errorf("write frame: %w", err)
	}
	if s.br == nil {
		sr := <-s.resp
		if sr.err != nil {
			return nil, sr.err
		}
		s.body = sr.r.Body
		if sr.r.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(sr.r.Body)
			return nil, &httpError{sr.r.StatusCode, string(b)}
		}
		s.br = bufio.NewReader(sr.r.Body)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		return nil, fmt.Errorf("read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if cap(s.buf) < int(n) {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	if _, err := io.ReadFull(s.br, s.buf); err != nil {
		return nil, fmt.Errorf("read frame: %w", err)
	}
	return s.buf, nil
}

// close ends the stream and waits for the server to finish the response.
func (s *deltaStream) close() error {
	s.pw.Close()
	if s.body == nil {
		sr := <-s.resp
		if sr.err != nil {
			return sr.err
		}
		s.body = sr.r.Body
	}
	_, err := io.Copy(io.Discard, s.body)
	if cerr := s.body.Close(); err == nil {
		err = cerr
	}
	return err
}

// ecoSession is a server holding one open session, and its stream.
type ecoSession struct {
	js     *jobServer
	id     string
	stream *deltaStream
}

// openEcoSession starts a server and opens a session on body.
func openEcoSession(o options, body []byte, traced bool) (*ecoSession, *service.SessionJSON, error) {
	js, err := startServer(o, traced)
	if err != nil {
		return nil, nil, err
	}
	var sj service.SessionJSON
	if err := js.c.doJSON("POST", "/v1/sessions", body, &sj); err != nil {
		js.close()
		return nil, nil, fmt.Errorf("open session: %w", err)
	}
	st, err := openStream(js.c, sj.ID)
	if err != nil {
		js.close()
		return nil, nil, err
	}
	return &ecoSession{js: js, id: sj.ID, stream: st}, &sj, nil
}

func (e *ecoSession) close() error {
	err := e.stream.close()
	if cerr := e.js.close(); err == nil {
		err = cerr
	}
	return err
}

// twin is the in-process copy of the server's session: the same input,
// the same engine configuration, fed the same frames.
type twin struct {
	ses *core.Session
	d   *design.Design
}

func newTwin(ctx context.Context, text []byte) (*twin, error) {
	d, _, err := iodesign.Read(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1 // as the session handler sets it
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := l.LegalizeBestEffort(ctx); err != nil {
		return nil, err
	}
	ses, err := core.NewSession(l)
	if err != nil {
		return nil, err
	}
	return &twin{ses: ses, d: d}, nil
}

// apply decodes and applies one frame payload, returning the time of each
// step.
func (t *twin) apply(ctx context.Context, payload []byte) (decode, apply time.Duration, rep *core.DeltaReport, err error) {
	t0 := time.Now()
	deltas, err := service.DecodeDeltaBatch(payload, service.Limits{})
	if err != nil {
		return 0, 0, nil, err
	}
	t1 := time.Now()
	rep, err = t.ses.ApplyDelta(ctx, deltas)
	return t1.Sub(t0), time.Since(t1), rep, err
}

// runEcoStream measures the session entry point: each op writes one frame
// on the open stream and reads the answer frame.
func runEcoStream(ctx context.Context, o options) (*result, error) {
	res := newResult()
	spec := bengen.SizeSpec{Name: "eco_stream", NumCells: ecoCells / o.scale, Density: 0.6, Seed: o.seed}
	var (
		input  *design.Design
		text   []byte
		main   *ecoSession
		opened *service.SessionJSON
	)
	setup, err := timeSetups(5, func(last bool) error {
		d := bengen.GenerateSized(spec)
		var buf bytes.Buffer
		if err := iodesign.Write(&buf, d, nil); err != nil {
			return err
		}
		body, err := json.Marshal(service.SubmitRequest{DesignText: buf.String()})
		if err != nil {
			return err
		}
		s, sj, err := openEcoSession(o, body, o.traced)
		if err != nil {
			return err
		}
		if !last {
			return s.close()
		}
		input, text, main, opened = d, buf.Bytes(), s, sj
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	o.logf("eco_stream: %d cells, set-up %.3fs, session %s opened with checksum %s",
		spec.NumCells, setup, opened.ID, opened.Report.PlacementChecksum)

	// The traced run sends every frame to an untraced session too (the
	// overhead baseline), and feeds it to the twin right after, outside
	// both ops.
	sessions := []*ecoSession{main}
	var tw *twin
	if o.traced {
		var body bytes.Buffer
		json.NewEncoder(&body).Encode(service.SubmitRequest{DesignText: string(text)})
		plain, _, err := openEcoSession(o, body.Bytes(), false)
		if err != nil {
			return nil, err
		}
		sessions = []*ecoSession{plain, main}
		if tw, err = newTwin(ctx, text); err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
	}
	closed := false
	closeAll := func() error {
		if closed {
			return nil
		}
		closed = true
		var first error
		for _, s := range sessions {
			if err := s.close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	defer closeAll()

	var (
		gen         = newEcoGen(input, o.seed)
		fp          = newFingerprint()
		frames      [][]byte // payloads, for the twin replay
		walls       []float64
		tracedWalls []float64
		negative    int
		deltas      []float64
		dispSum     float64
		dispN       int
		layers      = res.layers
		frameSums   []string // the server's checksum after each frame
	)
	aspect := float64(input.SiteH) / float64(input.SiteW)
	eval := evalNetlist(input, o.seed)
	// twinStep applies frame f to the twin; at the end of the quality
	// prefix it checks the twin against the server and reads ΔHPWL.
	twinStep := func(f int) (dec, app time.Duration, rep *core.DeltaReport, err error) {
		if dec, app, rep, err = tw.apply(ctx, frames[f]); err != nil {
			return 0, 0, nil, fmt.Errorf("twin frame %d: %w", f, err)
		}
		if f == ecoQualityFrames-1 {
			if got := fmt.Sprintf("%016x", tw.d.PlacementChecksum()); got != frameSums[f] {
				res.fail("frame %d: twin checksum %s, server %s", f, got, frameSums[f])
			}
			res.e2e["delta_hpwl_pct"] = hpwlDeltaPct(eval, input, tw.d)
		}
		return dec, app, rep, nil
	}
	for f, n := 0, opsFor(o.seconds, ecoFrameSeconds, ecoQualityFrames); f < n; f++ {
		batch := gen.frame()
		payload, err := json.Marshal(service.DeltaBatchJSON{Deltas: batch})
		if err != nil {
			return nil, err
		}
		frame := make([]byte, 4+len(payload))
		binary.BigEndian.PutUint32(frame, uint32(len(payload)))
		copy(frame[4:], payload)
		fp.add(frame)
		frames = append(frames, payload)

		var (
			answer     service.DeltaFrameJSON
			tracedWall float64
			tracedLen  int
			m0, m1     memSnap
		)
		for _, s := range sessions {
			traced := o.traced && s == main
			res.attempted++
			if traced {
				m0 = readMem()
			}
			t0 := time.Now()
			b, err := s.stream.exchange(frame)
			wall := secs(time.Since(t0))
			if traced {
				m1 = readMem()
			}
			if err != nil {
				res.failed++
				if rejected(err) {
					layers["jobq.rejected"]++
				}
				res.fail("frame %d: %v", f, err)
				return res, nil
			}
			answer = service.DeltaFrameJSON{}
			if err := json.Unmarshal(b, &answer); err != nil || answer.Error != nil || answer.Applied != len(batch) {
				res.failed++
				res.fail("frame %d: answer %s (decode error %v)", f, b, err)
				return res, nil
			}
			if traced {
				tracedWall, tracedLen = wall, len(b)
				continue
			}
			walls = append(walls, wall)
			deltas = append(deltas, float64(len(batch)))
		}
		frameSums = append(frameSums, answer.PlacementChecksum)
		if f < ecoQualityFrames {
			for i, r := range answer.Results {
				if dj := batch[i]; dj.X != nil {
					dispSum += abs(float64(r.X)-*dj.X) + abs(float64(r.Y)-*dj.Y)*aspect
					dispN++
				}
			}
		}
		if f == ecoQualityFrames-1 {
			res.e2e["peak_rss_mb"] = peakRSSMB()
		}
		if !o.traced {
			continue
		}
		tracedWalls = append(tracedWalls, tracedWall)
		addGC(layers, m0, m1)
		layers["core.allocs_per_cell"] += float64(m1.mallocs-m0.mallocs) / float64(len(batch))
		layers["service.frame_bytes"] += float64(len(frame) + 4 + tracedLen)
		dec, app, rep, err := twinStep(f)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		sum := fmt.Sprintf("%016x", tw.d.PlacementChecksum())
		ck := time.Since(t2)
		if sum != answer.PlacementChecksum {
			res.fail("frame %d: twin checksum %s, server %s", f, sum, answer.PlacementChecksum)
		}
		layers["service.frame_decode_s"] += secs(dec)
		layers["core.apply_delta_s"] += secs(app)
		layers["design.checksum_s"] += secs(ck)
		un := tracedWall - secs(dec+app+ck)
		layers["unattributed_s"] += un
		if un < 0 {
			negative++
		}
		if f < ecoQualityFrames {
			res.counters["core.dirty_cells"] += float64(rep.DirtyCells)
			res.counters["core.delta_retries"] += float64(rep.Retries)
		}
	}
	if len(walls) > 0 {
		opStats(res, o, walls, deltas, ecoChunk)
	}
	res.e2e["avg_disp_sites"] = dispSum / float64(dispN)
	o.logf("eco_stream: inputs %s", fp)

	// Gate: every frame was applied (checked above); the session is legal,
	// a fixed point, and equal to the twin fed the same frames.
	var cp service.CheckpointJSON
	if err := main.js.c.doJSON("POST", "/v1/sessions/"+main.id+"/checkpoint?oracle=1", nil, &cp); err != nil {
		res.fail("checkpoint: %v", err)
		return res, nil
	}
	if !cp.Legal || cp.FixedPoint == nil || !*cp.FixedPoint {
		res.fail("checkpoint: legal %v, %d violations, fixed point %v", cp.Legal, cp.Violations, cp.FixedPoint)
	}
	if err := closeAll(); err != nil {
		res.fail("close sessions: %v", err)
	}
	if !o.traced {
		if tw, err = newTwin(ctx, text); err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
		for f := range frames {
			if _, _, _, err := twinStep(f); err != nil {
				res.fail("%v", err)
				return res, nil
			}
		}
	}
	if got := fmt.Sprintf("%016x", tw.d.PlacementChecksum()); got != cp.PlacementChecksum {
		res.fail("final checksum: server %s, twin %s", cp.PlacementChecksum, got)
	}
	o.logf("eco_stream gate: %d frames, final checksum %s, avg disp from targets %.17g sites, ΔHPWL %.17g%%",
		len(frames), cp.PlacementChecksum, res.e2e["avg_disp_sites"], res.e2e["delta_hpwl_pct"])

	if o.traced {
		n := len(tracedWalls)
		rejectedTotal := layers["jobq.rejected"]
		perOp(layers, n)
		layers["jobq.rejected"] = rejectedTotal
		// Counts are read over the fixed prefix, so they repeat exactly.
		layers["core.dirty_cells"] = res.counters["core.dirty_cells"] / ecoQualityFrames
		layers["core.delta_retries"] = res.counters["core.delta_retries"] / ecoQualityFrames
		layers["obs.overhead_frac"] = median(tracedWalls)/median(walls) - 1
		o.logf("eco_stream attribution: %d of %d traced frames had a negative remainder", negative, n)
	}
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
