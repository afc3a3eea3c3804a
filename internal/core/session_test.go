package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	if err := l.Legalize(context.Background()); err != nil {
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
	if got := d.PlacementChecksum(); got != sum0 || s.PlacementChecksum() != sum0 {
		t.Fatalf("checksum changed across failed batch: %016x (kept %016x) != %016x", got, s.PlacementChecksum(), sum0)
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
	if got, want := s.PlacementChecksum(), d.PlacementChecksum(); got != want {
		t.Fatalf("kept digest %016x, from scratch %016x", got, want)
	}
	assertSessionLegal(t, s)
}

// TestSessionResultsAreCommittedPositions streams 200 move-only batches
// over a 5k-cell design, targets within 20 sites and 4 rows of each
// cell's input position, every tenth batch 400 deltas and the rest 20.
// Every result must report its cell's state after the batch, including
// results whose cell a later delta of the batch pushed or moved again.
func TestSessionResultsAreCommittedPositions(t *testing.T) {
	d := bengen.GenerateSized(bengen.SizeSpec{Name: "committed", NumCells: 5000, Density: 0.6, Seed: 3})
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(l)
	if err != nil {
		t.Fatal(err)
	}
	ids := movableCells(d)
	pick := rand.New(rand.NewSource(3))
	stale, total := 0, 0
	for batch := 0; batch < 200; batch++ {
		deltas := make([]core.Delta, 20)
		if batch%10 == 9 {
			deltas = make([]core.Delta, 400)
		}
		for j := range deltas {
			c := d.Cell(ids[pick.Intn(len(ids))])
			deltas[j] = core.Delta{Op: core.DeltaMove, Cell: c.ID,
				TX: c.GX + float64(pick.Intn(41)-20), TY: c.GY + float64(pick.Intn(9)-4)}
		}
		rep, err := s.ApplyDelta(context.Background(), deltas)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, r := range rep.Results {
			total++
			if c := d.Cell(r.Cell); r.X != c.X || r.Y != c.Y || r.Placed != c.Placed {
				if stale == 0 {
					t.Errorf("batch %d delta %d: result (%d,%d,%v), cell %d at commit (%d,%d,%v)",
						batch, i, r.X, r.Y, r.Placed, c.ID, c.X, c.Y, c.Placed)
				}
				stale++
			}
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d results differ from their cell at commit", stale, total)
	}
	assertSessionLegal(t, s)
}

// TestSessionRepeatedCells pins how a batch treats a cell named by more
// than one delta: the last target wins, a resize keeps the target of an
// earlier move, and a later delete takes the cell off the placement
// list. Edits all land before any placement, so an overridden target is
// never placed at all.
func TestSessionRepeatedCells(t *testing.T) {
	s, l := legalSession(t, 300, 41, nil)
	d := l.D
	ids := movableCells(d)

	// Move onto another cell, then back onto the cell's own footprint:
	// the first target is never visited, so nothing moves.
	c, o := d.Cell(ids[7]), d.Cell(ids[100])
	x0, y0, sum0 := c.X, c.Y, d.PlacementChecksum()
	rep, err := s.ApplyDelta(context.Background(), []core.Delta{
		{Op: core.DeltaMove, Cell: c.ID, TX: float64(o.X), TY: float64(o.Y)},
		{Op: core.DeltaMove, Cell: c.ID, TX: float64(x0), TY: float64(y0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PlacementChecksum(); got != sum0 || rep.DirtyCells != 1 {
		t.Fatalf("move twice: checksum %016x -> %016x, %d dirty cells; want no change and 1", sum0, got, rep.DirtyCells)
	}
	for i, r := range rep.Results {
		if r.X != x0 || r.Y != y0 || !r.Placed {
			t.Fatalf("move twice: result %d at (%d,%d), want (%d,%d)", i, r.X, r.Y, x0, y0)
		}
	}

	// Move to a free spot, then resize: the resize keeps the move's
	// target, so the cell lands there at its new width.
	c = d.Cell(ids[12])
	w := c.W + 1
	tx, ty, ok := freeSpotFar(l, c.ID, w, 10)
	if !ok {
		t.Fatal("no free spot for the resized cell")
	}
	rep, err = s.ApplyDelta(context.Background(), []core.Delta{
		{Op: core.DeltaMove, Cell: c.ID, TX: float64(tx), TY: float64(ty)},
		{Op: core.DeltaResize, Cell: c.ID, NewW: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c = d.Cell(c.ID); c.X != tx || c.Y != ty || c.W != w {
		t.Fatalf("move then resize: cell at (%d,%d) w=%d, want (%d,%d) w=%d", c.X, c.Y, c.W, tx, ty, w)
	}
	for i, r := range rep.Results {
		if r.X != tx || r.Y != ty || !r.Placed {
			t.Fatalf("move then resize: result %d at (%d,%d), want (%d,%d)", i, r.X, r.Y, tx, ty)
		}
	}

	// Move, then delete: the cell is never placed, and its footprint
	// is left free.
	c = d.Cell(ids[20])
	x0, y0, w0, h0 := c.X, c.Y, c.W, c.H
	rep, err = s.ApplyDelta(context.Background(), []core.Delta{
		{Op: core.DeltaMove, Cell: c.ID, TX: float64(x0 + 25), TY: float64(y0)},
		{Op: core.DeltaDelete, Cell: c.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c = d.Cell(c.ID); !c.Dead || c.Placed || rep.DirtyCells != 1 {
		t.Fatalf("move then delete: dead %v placed %v, %d dirty cells; want dead, unplaced, 1", c.Dead, c.Placed, rep.DirtyCells)
	}
	if rep.Results[0].Placed || rep.Results[1].Placed {
		t.Fatalf("move then delete: results %+v, want both unplaced", rep.Results)
	}
	if !l.G.FreeAt(x0, y0, w0, h0) {
		t.Fatal("move then delete: the deleted cell's footprint is still occupied")
	}
	assertSessionLegal(t, s)
}

// freeSpotFar returns the first free, rail-compatible site for cell id
// at width w that lies more than minDist sites from the cell.
func freeSpotFar(l *core.Legalizer, id design.CellID, w, minDist int) (x, y int, ok bool) {
	d := l.D
	c := d.Cell(id)
	m := d.MasterOf(id)
	for y = 0; y+c.H <= d.NumRows(); y++ {
		if !d.RailCompatible(m, y) {
			continue
		}
		sp := d.RowAt(y).Span
		for x = sp.Lo; x+w <= sp.Hi; x++ {
			far := y != c.Y || x > c.X+c.W+minDist || x+w < c.X-minDist
			if far && l.G.FreeAt(x, y, w, c.H) {
				return x, y, true
			}
		}
	}
	return 0, 0, false
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
		{"deleted earlier in the batch", []core.Delta{{Op: core.DeltaDelete, Cell: ids[2]}, {Op: core.DeltaMove, Cell: ids[2]}}, core.ErrUnknownCell},
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

// TestSessionFixedPointSeesCorruptGrid corrupts the grid behind a
// session: a placed cell leaves the grid but not the design, so a full
// pass would no longer see its slot as taken, and the oracle must read
// false; so must a live cell that is unplaced, which a full pass would
// place. Restoring the grid restores the fixed point, and a canceled
// context is an error.
func TestSessionFixedPointSeesCorruptGrid(t *testing.T) {
	s, l := legalSession(t, 400, 11, nil)
	fixed := func() bool {
		t.Helper()
		fp, err := s.FixedPoint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	if !fixed() {
		t.Fatal("healthy session: not a fixed point")
	}
	id := movableCells(l.D)[7]
	l.G.Remove(id)
	if fixed() {
		t.Fatal("a placed cell missing from the grid reads as a fixed point")
	}
	if err := l.G.Insert(id); err != nil {
		t.Fatal(err)
	}
	if !fixed() {
		t.Fatal("restored grid: not a fixed point")
	}
	l.G.Remove(id)
	l.D.Unplace(id)
	if fixed() {
		t.Fatal("an unplaced live cell reads as a fixed point")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.FixedPoint(ctx); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled context: error %v, want ErrCanceled", err)
	}
}

// TestSessionFixedPointSeesCellChangedBehindLog flips one placed cell's
// orientation directly in the design, behind the session's undo log. The
// grid does not record orientation, so it stays consistent, but the
// session's kept digest no longer matches the design, and the oracle
// must read false until the flip is undone.
func TestSessionFixedPointSeesCellChangedBehindLog(t *testing.T) {
	s, l := legalSession(t, 400, 11, nil)
	c := l.D.Cell(movableCells(l.D)[7])
	orient := c.Orient
	c.Orient = design.FS
	if orient == design.FS {
		c.Orient = design.N
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatalf("an orientation flip broke the grid: %v", err)
	}
	if fp, err := s.FixedPoint(context.Background()); err != nil || fp {
		t.Fatalf("a cell flipped behind the log: fixed point %v, error %v; want false", fp, err)
	}
	c.Orient = orient
	if fp, err := s.FixedPoint(context.Background()); err != nil || !fp {
		t.Fatalf("flip undone: fixed point %v, error %v; want true", fp, err)
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
	if err := l.Legalize(context.Background()); err != nil {
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
	if l.D.PlacementChecksum() != sum0 || s.PlacementChecksum() != sum0 {
		t.Fatal("canceled batch mutated the design or the kept digest")
	}

	// Canceled inside the retry ladder: before its first round, and
	// after the first cell has been placed. Either way the batch fails
	// with ErrCanceled and rolls back.
	for _, n := range []int{1, 3} {
		deltas := make([]core.Delta, 5)
		for j := range deltas {
			c := l.D.Cell(ids[j])
			deltas[j] = core.Delta{Op: core.DeltaMove, Cell: c.ID, TX: c.GX + 9, TY: c.GY}
		}
		_, err := s.ApplyDelta(&errAfter{Context: context.Background(), n: n}, deltas)
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if l.D.PlacementChecksum() != sum0 || s.PlacementChecksum() != sum0 {
			t.Fatalf("n=%d: batch canceled mid-ladder mutated the design or the kept digest", n)
		}
	}
	assertSessionLegal(t, s)
}

// errAfter is a context whose Err turns to context.Canceled after n
// calls, so a batch is canceled at a chosen check inside the ladder.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
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
