package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mrlegal/internal/design"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/netlist"
	"mrlegal/internal/verify"
)

// timeSetups runs setup runs times and returns the median wall time, so
// one slow set-up cannot move setup_s. setup receives whether this is the
// last repetition, whose products the timed ops use; earlier repetitions
// release theirs.
func timeSetups(runs int, setup func(last bool) error) (float64, error) {
	var walls []float64
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := setup(i == runs-1); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

// opsFor turns a run length into a fixed op count: seconds at nominal
// seconds per op (measured on the reference 2-vCPU VM), at least least.
func opsFor(seconds, nominal float64, least int) int {
	return max(least, int(math.Round(seconds/nominal)))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memSnap is the slice of runtime.MemStats the traced runs difference.
type memSnap struct {
	mallocs, numGC uint64
	pauseNs        uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// addGC records the runtime layers between two snapshots.
func addGC(layers map[string]float64, a, b memSnap) {
	layers["runtime.gc_cycles"] += float64(b.numGC - a.numGC)
	layers["runtime.gc_pause_s"] += float64(b.pauseNs-a.pauseNs) / 1e9
}

// fingerprint hashes every input a run hands the program, so two runs can
// be shown to have received byte-identical inputs.
type fingerprint struct {
	all   hash.Hash
	bytes int64
	count int
}

func newFingerprint() *fingerprint { return &fingerprint{all: sha256.New()} }

func (f *fingerprint) add(b []byte) {
	f.all.Write(b)
	f.bytes += int64(len(b))
	f.count++
}

func (f *fingerprint) String() string {
	return fmt.Sprintf("%d inputs, %d bytes, sha256 %s", f.count, f.bytes, hex.EncodeToString(f.all.Sum(nil)))
}

// hpwlDeltaPct is Table 1's ΔHPWL in percent: the placed design's
// wirelength against the input (global placement) positions.
func hpwlDeltaPct(nl *netlist.Netlist, in, out *design.Design) float64 {
	return netlist.HPWLDelta(nl.HPWL(in), nl.HPWL(out)) * 100
}

// checkPlacement is the gate's check of one placement the program wrote:
// it parses, verifies clean with every cell placed, and carries the
// checksum the program reported for it.
func checkPlacement(text []byte, want uint64) (*design.Design, error) {
	d, _, err := iodesign.Read(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("placement does not parse: %w", err)
	}
	if vs := verify.Check(d, verify.Options{RequirePlaced: true, PowerAlignment: true}, 5); len(vs) > 0 {
		return nil, fmt.Errorf("placement violations: %v", vs)
	}
	if got := d.PlacementChecksum(); got != want {
		return nil, fmt.Errorf("placement checksum %016x, reported %016x", got, want)
	}
	return d, nil
}

// movable counts the movable cells of d.
func movable(d *design.Design) int {
	n := 0
	for i := range d.Cells {
		if !d.Cells[i].Fixed && !d.Cells[i].Dead {
			n++
		}
	}
	return n
}

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// opStats fills the latency and throughput metrics from per-op walls and
// the cells each op legalized or edited. Throughput is the median over
// consecutive chunks of chunk ops (a Table-1 pass, 100 frames, one
// mrlegal run) of cells / wall, so one stalled op moves it no more than
// it moves the median latency.
func opStats(res *result, o options, walls, cells []float64, chunk int) {
	res.e2e["op_p50_s"] = median(walls)
	var rates []float64
	for i := 0; i+chunk <= len(walls); i += chunk {
		var c, w float64
		for j := i; j < i+chunk; j++ {
			c += cells[j]
			w += walls[j]
		}
		rates = append(rates, c/w)
	}
	res.e2e["cells_per_s"] = median(rates)
	v, pct, beyond, ok := tail(walls)
	if !ok {
		// The result line carries every end-to-end metric on every
		// workload; with too few ops for a percentile to have ten beyond
		// it, the slowest op stands in (README.md, "op_tail_s").
		v, pct, beyond = sorted(walls)[len(walls)-1], 100, 0
	}
	res.e2e["op_tail_s"] = v
	q1, q3 := quartiles(walls)
	o.logf("ops: %d, p50 %.6fs (quartiles %.6f–%.6f), tail p%g = %.6fs with %d ops beyond it (rule met: %v), %d chunk rates",
		len(walls), res.e2e["op_p50_s"], q1, q3, pct, v, beyond, ok, len(rates))
}

// evalNetlist builds the seeded netlist that measures ΔHPWL on inputs that
// carry none (large_200k, eco_stream). It is never sent to the program, and
// MLL ignores nets, so it only scores the placement. Each cell opens one
// 2–4-pin net to cells a few indices on; GenerateSized lays cells out in
// row-major strips, so these nets are short, like those of a placed design.
func evalNetlist(d *design.Design, seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New()
	pin := func(i int) netlist.Pin {
		c := &d.Cells[i]
		return netlist.Pin{Cell: design.CellID(i), DX: float64(c.W) / 2, DY: float64(c.H) / 2}
	}
	n := len(d.Cells)
	for i := 0; i < n-1; i++ {
		pins := []netlist.Pin{pin(i)}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			// Skip partners across a strip wrap: one die-wide net would
			// outweigh hundreds of local ones.
			if j := i + 1 + rng.Intn(16); j < n && math.Abs(d.Cells[j].GY-d.Cells[i].GY) < 2 {
				pins = append(pins, pin(j))
			}
		}
		if len(pins) > 1 {
			nl.AddNet(fmt.Sprintf("e%d", i), pins...)
		}
	}
	return nl
}
