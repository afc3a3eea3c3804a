// Allocation-regression guards for the single-cell edit paths of instant
// legalization: MoveCell (the SingleMLLCall pattern) and ResizeCell on a
// legalized design. The engine's contract is 0 allocs/op with
// observability disabled: the undo log, the scratch and the moved-cell
// buffers are the legalizer's own and are reused by every call.
// Attaching an Observer must not add allocations on this path
// (RecordCell only fires in the driver round loop), so the enabled
// ceiling is a small documented headroom above the same floor. Measured
// with go1.24 on linux/amd64: 0.00 allocs/op in both modes (see
// docs/OBSERVABILITY.md). The race runtime perturbs the counts, so these
// run in the non-race step of `make check` and CI
// (`go test -count=1 -run Allocs .`).
package mrlegal_test

import (
	"context"
	"testing"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/obs"
)

// maxMoveCellAllocs is the contract for the disabled configuration.
const maxMoveCellAllocs = 0

// maxMoveCellAllocsObs is the documented ceiling with an Observer
// attached (measured equal to the disabled floor; the slack absorbs
// runtime-version jitter, not design regressions).
const maxMoveCellAllocsObs = 2

// maxResizeCellAllocs is the contract for one grow-and-shrink pair of
// ResizeCell calls with observability disabled.
const maxResizeCellAllocs = 0

// legalizedFFT legalizes a fresh clone of fft_1/200 under cfg and returns
// its legalizer with the IDs of the design's movable cells.
func legalizedFFT(t *testing.T, cfg core.Config) (*core.Legalizer, []design.CellID) {
	t.Helper()
	p := prepared2(t, "fft_1", 200)
	d := p.Bench.D.Clone()
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	ids := make([]design.CellID, 0, len(d.Cells))
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ids = append(ids, d.Cells[i].ID)
		}
	}
	return l, ids
}

// moveCellAllocs returns the steady-state allocations of one MoveCell
// round trip on fft_1/200 legalized under cfg.
func moveCellAllocs(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	l, ids := legalizedFFT(t, cfg)
	i := 0
	return testing.AllocsPerRun(400, func() {
		c := l.D.Cell(ids[i%len(ids)])
		l.MoveCell(c.ID, float64(c.X+5), float64(c.Y))
		i++
	})
}

// TestSingleMLLCallAllocs pins the disabled-observability hot path to the
// 0 allocs/op contract.
func TestSingleMLLCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race runtime")
	}
	if avg := moveCellAllocs(t, core.DefaultConfig()); avg > maxMoveCellAllocs {
		t.Errorf("MoveCell with obs disabled: %.2f allocs/op, contract is ≤ %d", avg, maxMoveCellAllocs)
	}
}

// TestSingleMLLCallAllocsObserved pins the obs-enabled ceiling: attaching
// an Observer (metrics, no trace sink) must not put allocations on
// the incremental path.
func TestSingleMLLCallAllocsObserved(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race runtime")
	}
	cfg := core.DefaultConfig()
	cfg.Obs = obs.New(obs.Options{})
	if avg := moveCellAllocs(t, cfg); avg > maxMoveCellAllocsObs {
		t.Errorf("MoveCell with obs enabled: %.2f allocs/op, ceiling is %d", avg, maxMoveCellAllocsObs)
	}
}

// TestResizeCellAllocs pins the gate-sizing path: growing a placed cell
// by one site and shrinking it back, two ResizeCell calls that each
// re-legalize the cell near its position, allocates nothing.
func TestResizeCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race runtime")
	}
	l, ids := legalizedFFT(t, core.DefaultConfig())
	i, failed := 0, 0
	avg := testing.AllocsPerRun(400, func() {
		id := ids[i%len(ids)]
		w := l.D.Cell(id).W
		if l.ResizeCell(id, w+1) != nil || l.ResizeCell(id, w) != nil {
			failed++
		}
		i++
	})
	if failed > 0 {
		t.Fatalf("%d of %d resize pairs failed; the guard measures the success path", failed, i)
	}
	if avg > maxResizeCellAllocs {
		t.Errorf("ResizeCell grow and shrink: %.2f allocs/op, contract is ≤ %d", avg, maxResizeCellAllocs)
	}
}
