// Allocation-regression guards for the incremental MLL hot path (the
// SingleMLLCall pattern: MoveCell on a legalized design). The engine's
// contract is ≤5 allocs/op with observability disabled; attaching an
// Observer must not add allocations on this path (RecordCell only fires
// in the driver round loop), so the enabled ceiling is a small documented
// headroom above the same floor. Measured with go1.24 on linux/amd64:
// 5.00 allocs/op in both modes (see docs/OBSERVABILITY.md). The race
// runtime perturbs the counts, so these run in the non-race step of
// `make check` and CI (`go test -count=1 -run Allocs .`).
package mrlegal_test

import (
	"testing"

	"mrlegal/internal/core"
	"mrlegal/internal/obs"
)

// maxMoveCellAllocs is the contract for the disabled configuration.
const maxMoveCellAllocs = 5

// maxMoveCellAllocsObs is the documented ceiling with an Observer
// attached (measured equal to the disabled floor; the slack absorbs
// runtime-version jitter, not design regressions).
const maxMoveCellAllocsObs = 7

// moveCellAllocs legalizes a fresh clone of fft_1/200 under cfg and
// returns the steady-state allocations of one MoveCell round trip.
func moveCellAllocs(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	p := prepared2(t, "fft_1", 200)
	d := p.Bench.D.Clone()
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, len(d.Cells))
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ids = append(ids, i)
		}
	}
	i := 0
	return testing.AllocsPerRun(400, func() {
		id := d.Cells[ids[i%len(ids)]].ID
		c := d.Cell(id)
		l.MoveCell(id, float64(c.X+5), float64(c.Y))
		i++
	})
}

// TestSingleMLLCallAllocs pins the disabled-observability hot path to the
// 5 allocs/op contract.
func TestSingleMLLCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race runtime")
	}
	if avg := moveCellAllocs(t, core.DefaultConfig()); avg > maxMoveCellAllocs {
		t.Errorf("MoveCell with obs disabled: %.2f allocs/op, contract is ≤ %d", avg, maxMoveCellAllocs)
	}
}

// TestSingleMLLCallAllocsObserved pins the obs-enabled ceiling: attaching
// an Observer (metrics + ring, no trace sink) must not put allocations on
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
