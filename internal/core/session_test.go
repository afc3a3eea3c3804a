package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/verify"
)

// legalSession legalizes a generated benchmark and opens a session on it.
func legalSession(t *testing.T, cells int, seed int64, mut func(*core.Config)) (*core.Session, *core.Legalizer) {
	t.Helper()
	b := bengen.Generate(bengen.Spec{Name: "eco", NumCells: cells, Density: 0.6, Seed: seed})
	cfg := core.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	l, err := core.NewLegalizer(b.D, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		t.Fatalf("base legalization: %v", err)
	}
	s, err := core.NewSession(l)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return s, l
}

// movableCells returns the ids of live movable cells in id order.
func movableCells(d *design.Design) []design.CellID {
	var ids []design.CellID
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed && !c.Dead {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// assertSessionLegal runs the two correctness anchors of the session
// engine: verify-clean and the fixed-point oracle.
func assertSessionLegal(t *testing.T, s *core.Session) {
	t.Helper()
	if vs := s.Verify(4); len(vs) > 0 {
		t.Fatalf("session design not legal: %v", vs[0])
	}
	fp, err := s.FixedPoint(context.Background())
	if err != nil {
		t.Fatalf("fixed-point run: %v", err)
	}
	if !fp {
		t.Fatal("full legalization of the incremental result was not a no-op")
	}
}

func TestSessionAppliesMixedBatch(t *testing.T) {
	s, l := legalSession(t, 300, 7, nil)
	d := l.D
	ids := movableCells(d)

	c0, c1, c2 := d.Cell(ids[3]), d.Cell(ids[10]), d.Cell(ids[20])
	newW := c1.W + 1
	batch := []core.Delta{
		{Op: core.DeltaMove, Cell: c0.ID, TX: c0.GX + 12, TY: c0.GY + 2},
		{Op: core.DeltaResize, Cell: c1.ID, NewW: newW},
		{Op: core.DeltaInsert, Name: "buf_0", Master: c2.Master, TX: float64(c2.X) + 5, TY: float64(c2.Y)},
		{Op: core.DeltaDelete, Cell: ids[30]},
	}
	rep, err := s.ApplyDelta(context.Background(), batch)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if len(rep.Results) != len(batch) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(batch))
	}
	if !rep.Results[0].Placed || !rep.Results[1].Placed || !rep.Results[2].Placed {
		t.Fatalf("move/resize/insert results must be placed: %+v", rep.Results)
	}
	if rep.Results[3].Placed {
		t.Fatal("delete result must be unplaced")
	}
	if got := d.Cell(c1.ID).W; got != newW {
		t.Fatalf("resize width = %d, want %d", got, newW)
	}
	ins := rep.Results[2].Cell
	if int(ins) != len(d.Cells)-1 || d.Cell(ins).Name != "buf_0" {
		t.Fatalf("insert assigned id %d name %q", ins, d.Cell(ins).Name)
	}
	if !d.Cell(ids[30]).Dead || d.Cell(ids[30]).Placed {
		t.Fatal("deleted cell must be dead and unplaced")
	}
	// Every delta perturbs at least its target cell.
	if rep.DirtyCells < len(batch) {
		t.Fatalf("DirtyCells = %d, want >= %d", rep.DirtyCells, len(batch))
	}
	assertSessionLegal(t, s)
}

func TestSessionBatchIsAtomic(t *testing.T) {
	s, l := legalSession(t, 200, 3, nil)
	d := l.D
	ids := movableCells(d)
	sum0 := d.PlacementChecksum()
	cells0 := len(d.Cells)

	// A master wider than any row makes the final delta unplaceable, so
	// the whole batch — including the earlier valid deltas — must unwind.
	wide := d.AddMaster(design.Master{Name: "too_wide", Width: 100000, Height: 1, BottomRail: design.VSS})
	batch := []core.Delta{
		{Op: core.DeltaMove, Cell: ids[0], TX: d.Cell(ids[0]).GX + 8, TY: d.Cell(ids[0]).GY},
		{Op: core.DeltaInsert, Name: "ok", Master: d.Cell(ids[1]).Master, TX: 10, TY: 1},
		{Op: core.DeltaDelete, Cell: ids[2]},
		{Op: core.DeltaInsert, Name: "nope", Master: wide, TX: 10, TY: 1},
	}
	_, err := s.ApplyDelta(context.Background(), batch)
	if !errors.Is(err, core.ErrCellTooWide) {
		t.Fatalf("err = %v, want ErrCellTooWide", err)
	}
	if got := d.PlacementChecksum(); got != sum0 {
		t.Fatalf("checksum changed across failed batch: %016x != %016x", got, sum0)
	}
	if len(d.Cells) != cells0 {
		t.Fatalf("cell roster leaked: %d cells, want %d", len(d.Cells), cells0)
	}
	if d.Cell(ids[2]).Dead {
		t.Fatal("delete survived a rolled-back batch")
	}
	assertSessionLegal(t, s)

	// The session stays usable after an aborted batch.
	if _, err := s.ApplyDelta(context.Background(), batch[:3]); err != nil {
		t.Fatalf("batch after abort: %v", err)
	}
	assertSessionLegal(t, s)
}

func TestSessionValidation(t *testing.T) {
	s, l := legalSession(t, 100, 5, nil)
	d := l.D
	ids := movableCells(d)
	sum0 := d.PlacementChecksum()

	var fixed design.CellID = -1
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			fixed = d.Cells[i].ID
			break
		}
	}
	cases := []struct {
		name  string
		batch []core.Delta
		want  error
	}{
		{"unknown cell", []core.Delta{{Op: core.DeltaMove, Cell: design.CellID(len(d.Cells) + 5)}}, core.ErrUnknownCell},
		{"negative cell", []core.Delta{{Op: core.DeltaDelete, Cell: -1}}, core.ErrUnknownCell},
		{"bad master", []core.Delta{{Op: core.DeltaInsert, Master: len(d.Lib)}}, core.ErrUnknownCell},
		{"bad width", []core.Delta{{Op: core.DeltaResize, Cell: ids[0], NewW: 0}}, core.ErrInvalidWidth},
		{"bad op", []core.Delta{{Op: core.DeltaOp(99), Cell: ids[0]}}, core.ErrUnknownCell},
	}
	if fixed >= 0 {
		cases = append(cases, struct {
			name  string
			batch []core.Delta
			want  error
		}{"fixed cell", []core.Delta{{Op: core.DeltaMove, Cell: fixed}}, core.ErrFixedCell})
	}
	for _, tc := range cases {
		if _, err := s.ApplyDelta(context.Background(), tc.batch); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Deleted cells are rejected as targets of later deltas.
	if _, err := s.ApplyDelta(context.Background(), []core.Delta{{Op: core.DeltaDelete, Cell: ids[1]}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDelta(context.Background(), []core.Delta{{Op: core.DeltaMove, Cell: ids[1]}}); !errors.Is(err, core.ErrUnknownCell) {
		t.Fatalf("move of deleted cell: err = %v, want ErrUnknownCell", err)
	}
	// Validation failures touch nothing (the one successful delete aside).
	_ = sum0
	assertSessionLegal(t, s)
}

func TestSessionDeterministic(t *testing.T) {
	run := func() uint64 {
		s, l := legalSession(t, 250, 9, nil)
		ids := movableCells(l.D)
		for batch := 0; batch < 3; batch++ {
			var deltas []core.Delta
			for j := 0; j < 10; j++ {
				c := l.D.Cell(ids[(batch*31+j*7)%len(ids)])
				if c.Dead {
					continue
				}
				deltas = append(deltas, core.Delta{
					Op: core.DeltaMove, Cell: c.ID,
					TX: c.GX + float64(5+j), TY: c.GY + float64(batch),
				})
			}
			if _, err := s.ApplyDelta(context.Background(), deltas); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
		return l.D.PlacementChecksum()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same delta sequence produced different placements: %016x != %016x", a, b)
	}
}

func TestSessionFixedPointAfterEveryBatch(t *testing.T) {
	s, l := legalSession(t, 400, 11, nil)
	ids := movableCells(l.D)
	for batch := 0; batch < 5; batch++ {
		var deltas []core.Delta
		for j := 0; j < 8; j++ {
			c := l.D.Cell(ids[(batch*53+j*13)%len(ids)])
			if c.Dead {
				continue
			}
			switch j % 3 {
			case 0:
				deltas = append(deltas, core.Delta{Op: core.DeltaMove, Cell: c.ID, TX: c.GX - 6, TY: c.GY + 1})
			case 1:
				deltas = append(deltas, core.Delta{Op: core.DeltaResize, Cell: c.ID, NewW: c.W + 1})
			case 2:
				deltas = append(deltas, core.Delta{Op: core.DeltaInsert, Master: c.Master, TX: c.GX + 3, TY: c.GY})
			}
		}
		if _, err := s.ApplyDelta(context.Background(), deltas); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		assertSessionLegal(t, s)
	}
	st := s.Stats()
	if st.Batches != 5 || st.Deltas == 0 || st.DirtyCells < st.Deltas {
		t.Fatalf("session stats inconsistent: %+v", st)
	}
}

func TestSessionDeleteThenInsertReusesSpace(t *testing.T) {
	s, l := legalSession(t, 150, 17, nil)
	ids := movableCells(l.D)
	victim := l.D.Cell(ids[5])
	x, y, master := victim.X, victim.Y, victim.Master
	batch := []core.Delta{
		{Op: core.DeltaDelete, Cell: victim.ID},
		{Op: core.DeltaInsert, Name: "replacement", Master: master, TX: float64(x), TY: float64(y)},
	}
	rep, err := s.ApplyDelta(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	// Same master, same target, space just freed: the insert must land
	// exactly in the vacated footprint.
	if got := rep.Results[1]; got.X != x || got.Y != y {
		t.Fatalf("replacement landed at (%d,%d), want (%d,%d)", got.X, got.Y, x, y)
	}
	assertSessionLegal(t, s)
}

func TestSessionLifecycle(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "eco", NumCells: 50, Density: 0.5, Seed: 23})
	l, err := core.NewLegalizer(b.D, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A design with unplaced cells is rejected.
	if _, err := core.NewSession(l); !errors.Is(err, core.ErrNotLegal) {
		t.Fatalf("NewSession on unplaced design: err = %v, want ErrNotLegal", err)
	}
	if err := l.Legalize(); err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(l)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if _, err := s.ApplyDelta(context.Background(), nil); !errors.Is(err, core.ErrSessionClosed) {
		t.Fatalf("ApplyDelta on closed session: err = %v, want ErrSessionClosed", err)
	}
}

func TestSessionCanceledContext(t *testing.T) {
	s, l := legalSession(t, 80, 29, nil)
	ids := movableCells(l.D)
	sum0 := l.D.PlacementChecksum()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.ApplyDelta(ctx, []core.Delta{{Op: core.DeltaMove, Cell: ids[0], TX: 1, TY: 1}})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if l.D.PlacementChecksum() != sum0 {
		t.Fatal("canceled batch mutated the design")
	}
}

func TestSessionVerifyUsesPluginCheckers(t *testing.T) {
	// The session's Verify must report zero violations under the same
	// options the engine's own audits use, including power alignment.
	s, l := legalSession(t, 120, 31, nil)
	if !l.Cfg.PowerAlign {
		t.Skip("default config no longer power-aligns")
	}
	if vs := s.Verify(0); len(vs) != 0 {
		t.Fatalf("verify after open: %v", vs[0])
	}
	vs := verify.Check(l.D, verify.Options{RequirePlaced: true, PowerAlignment: true}, 1)
	if len(vs) != 0 {
		t.Fatalf("independent verify: %v", vs[0])
	}
}

func TestSessionManySmallBatchesStayLegal(t *testing.T) {
	if testing.Short() {
		t.Skip("long session soak")
	}
	s, l := legalSession(t, 600, 37, nil)
	ids := movableCells(l.D)
	for i := 0; i < 40; i++ {
		c := l.D.Cell(ids[(i*97)%len(ids)])
		if c.Dead {
			continue
		}
		if _, err := s.ApplyDelta(context.Background(), []core.Delta{
			{Op: core.DeltaMove, Cell: c.ID, TX: c.GX + float64(i%11-5), TY: c.GY + float64(i%3-1)},
		}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	assertSessionLegal(t, s)
	if st := s.Stats(); st.Batches != 40 {
		t.Fatalf("batches = %d, want 40", st.Batches)
	}
}

func TestSessionStatsString(t *testing.T) {
	// DeltaOp string forms are part of the wire format; pin them.
	want := map[core.DeltaOp]string{
		core.DeltaMove: "move", core.DeltaResize: "resize",
		core.DeltaInsert: "insert", core.DeltaDelete: "delete",
	}
	for op, w := range want {
		if op.String() != w {
			t.Fatalf("%d.String() = %q, want %q", op, op.String(), w)
		}
	}
	if got := core.DeltaOp(42).String(); got != fmt.Sprintf("op(%d)", 42) {
		t.Fatalf("unknown op string = %q", got)
	}
}
