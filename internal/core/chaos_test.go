package core_test

// Chaos tests: drive the transactional engine through injected grid-insert
// failures, mid-realization panics and audit violations, and prove it
// never leaves an illegal or inconsistent placement behind.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/faultinject"
	"mrlegal/internal/verify"
)

// The injector must satisfy the engine's hook interface.
var _ core.FaultInjector = (*faultinject.Injector)(nil)

func chaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Rx, cfg.Ry = 15, 3
	return cfg
}

// chaosDesign builds a moderately dense mixed-height instance whose
// legalization exercises both direct placement and MLL.
func chaosDesign(t *testing.T) *design.Design {
	t.Helper()
	d := dtest.Flat(8, 60)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		w := 2 + rng.Intn(4)
		h := 1 + rng.Intn(2)
		dtest.Unplaced(d, w, h, rng.Float64()*55, rng.Float64()*7)
	}
	return d
}

// assertSane fails the test unless the design is legal for all placed
// cells and the grid invariants hold.
func assertSane(t *testing.T, l *core.Legalizer, requirePlaced bool) {
	t.Helper()
	if vs := verify.Check(l.D, verify.Options{RequirePlaced: requirePlaced, PowerAlignment: l.Cfg.PowerAlign}, 0); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d violations after chaos run", len(vs))
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatalf("grid inconsistent after chaos run: %v", err)
	}
}

func TestChaosInsertFailuresNeverCorrupt(t *testing.T) {
	d := chaosDesign(t)
	cfg := chaosConfig()
	inj := &faultinject.Injector{FailInsertEvery: 3}
	cfg.Faults = inj
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inj.InjectedInsertFailures == 0 {
		t.Fatal("injector never fired; test is vacuous")
	}
	assertSane(t, l, false)
	if len(rep.Failed) != 0 {
		t.Fatalf("retries should absorb periodic insert failures, got %d failed: %v",
			len(rep.Failed), rep.Failed)
	}
}

func TestChaosRealizePanicsNeverCorrupt(t *testing.T) {
	d := chaosDesign(t)
	cfg := chaosConfig()
	inj := &faultinject.Injector{PanicRealizeEvery: 4}
	cfg.Faults = inj
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inj.InjectedPanics == 0 {
		t.Fatal("injector never fired; test is vacuous")
	}
	assertSane(t, l, false)
	for _, f := range rep.Failed {
		if l.D.Cell(f.Cell).Placed {
			t.Fatalf("failed cell %d is marked placed", f.Cell)
		}
	}
}

func TestChaosMoveCellPanicRollsBack(t *testing.T) {
	d := dtest.Flat(1, 40)
	var ids []design.CellID
	for i := 0; i < 6; i++ {
		ids = append(ids, dtest.Unplaced(d, 4, 1, float64(i*6), 0))
	}
	cfg := chaosConfig()
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})

	// Every realization commit now panics at its most inconsistent
	// instant: shifted neighbors committed, target placed but not in the
	// grid.
	inj := &faultinject.Injector{PanicRealizeEvery: 1}
	l.Cfg.Faults = inj
	mover := ids[0]
	oldX, oldY := d.Cell(mover).X, d.Cell(mover).Y
	// Target an occupied stretch so the move must go through MLL.
	err = l.MoveCell(mover, float64(d.Cell(ids[3]).X), 0)
	if err == nil {
		t.Fatal("move should fail under an always-panicking realizer")
	}
	if !errors.Is(err, core.ErrPanicked) {
		t.Fatalf("err = %v, want ErrPanicked in chain", err)
	}
	var ce *core.CellError
	if !errors.As(err, &ce) || ce.Cell != mover {
		t.Fatalf("err = %v, want *CellError for cell %d", err, mover)
	}
	if inj.InjectedPanics == 0 {
		t.Fatal("injector never fired; test is vacuous")
	}
	if c := d.Cell(mover); !c.Placed || c.X != oldX || c.Y != oldY {
		t.Fatalf("mover not restored: placed=%v at (%d,%d), want (%d,%d)",
			c.Placed, c.X, c.Y, oldX, oldY)
	}
	assertSane(t, l, true)
}

func TestChaosMoveCellInsertFailureRollsBack(t *testing.T) {
	d := dtest.Flat(1, 40)
	var ids []design.CellID
	for i := 0; i < 6; i++ {
		ids = append(ids, dtest.Unplaced(d, 4, 1, float64(i*6), 0))
	}
	l, err := core.NewLegalizer(d, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	inj := &faultinject.Injector{FailInsertEvery: 1} // every insert fails
	l.Cfg.Faults = inj
	mover := ids[1]
	oldX, oldY := d.Cell(mover).X, d.Cell(mover).Y
	err = l.MoveCell(mover, float64(d.Cell(ids[4]).X), 0)
	if err == nil {
		t.Fatal("move should fail when every grid insert fails")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected in chain", err)
	}
	if c := d.Cell(mover); !c.Placed || c.X != oldX || c.Y != oldY {
		t.Fatalf("mover not restored: placed=%v at (%d,%d), want (%d,%d)",
			c.Placed, c.X, c.Y, oldX, oldY)
	}
	assertSane(t, l, true)
}

func TestChaosAuditViolationRollsBackBatch(t *testing.T) {
	d := chaosDesign(t)
	cfg := chaosConfig()
	cfg.AuditEvery = 5
	inj := &faultinject.Injector{FailAuditEvery: 3}
	cfg.Faults = inj
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inj.InjectedAuditFailures == 0 {
		t.Fatal("injector never fired; test is vacuous")
	}
	if rep.AuditRollbacks == 0 || rep.AuditRuns < rep.AuditRollbacks {
		t.Fatalf("audit accounting wrong: %d runs, %d rollbacks", rep.AuditRuns, rep.AuditRollbacks)
	}
	assertSane(t, l, false)
	if len(rep.Failed) != 0 {
		t.Fatalf("retries should absorb periodic audit rollbacks, got %d failed", len(rep.Failed))
	}
}

func TestChaosLargeRunUnderAllFaults(t *testing.T) {
	// Combined stressor on a generated benchmark: insert failures,
	// realize panics and audit violations at co-prime periods.
	b := bengen.Generate(bengen.Spec{Name: "chaos", NumCells: 400, Density: 0.6, Seed: 11})
	cfg := core.DefaultConfig()
	cfg.AuditEvery = 17
	inj := &faultinject.Injector{FailInsertEvery: 13, PanicRealizeEvery: 29, FailAuditEvery: 5}
	cfg.Faults = inj
	l, err := core.NewLegalizer(b.D, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
		t.Fatal(err)
	}
	if inj.InjectedInsertFailures == 0 || inj.InjectedPanics == 0 || inj.InjectedAuditFailures == 0 {
		t.Fatalf("not all fault classes fired: %+v", inj)
	}
	assertSane(t, l, false)
}

func TestBestEffortInfeasibleBenchmark(t *testing.T) {
	// One cell is wider than every segment; best effort must name it with
	// ErrCellTooWide while placing everything else legally.
	d := dtest.Flat(4, 30)
	wide := dtest.Unplaced(d, 50, 1, 0, 0)
	var rest []design.CellID
	for i := 0; i < 10; i++ {
		rest = append(rest, dtest.Unplaced(d, 3, 1, float64(i*3), float64(i%4)))
	}
	cfg := chaosConfig()
	cfg.MaxRounds = 8
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f, ok := rep.FailureFor(wide)
	if !ok || !errors.Is(f.Err, core.ErrCellTooWide) {
		t.Fatalf("wide cell failure = %+v (found %v), want ErrCellTooWide", f, ok)
	}
	if len(rep.Failed) != 1 {
		t.Fatalf("failed = %v, want only the wide cell", rep.Failed)
	}
	for _, id := range rest {
		if !d.Cell(id).Placed {
			t.Fatalf("feasible cell %d left unplaced", id)
		}
	}
	if rep.Placed != len(rest) {
		t.Fatalf("rep.Placed = %d, want %d", rep.Placed, len(rest))
	}
	assertSane(t, l, false)

	// The strict API must classify the same instance as ErrCellTooWide.
	d2 := dtest.Flat(4, 30)
	dtest.Unplaced(d2, 50, 1, 0, 0)
	l2, err := core.NewLegalizer(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Legalize(context.Background()); !errors.Is(err, core.ErrCellTooWide) || !errors.Is(err, core.ErrRoundsExhausted) {
		t.Fatalf("strict err = %v, want ErrRoundsExhausted wrapping ErrCellTooWide", err)
	}
}

func TestLegalizeCtxCancellation(t *testing.T) {
	d := chaosDesign(t)
	l, err := core.NewLegalizer(d, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run starts
	err = l.Legalize(ctx)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	assertSane(t, l, false)

	rep, err := l.LegalizeBestEffort(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimedOut {
		t.Fatal("best-effort report should mark the run as timed out")
	}
	for _, f := range rep.Failed {
		if !errors.Is(f.Err, core.ErrCanceled) {
			t.Fatalf("failure %v, want ErrCanceled", f)
		}
	}

	// An un-canceled context must still legalize everything.
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSane(t, l, true)
}

func TestResizeUnplacedRejectsUnplaceableWidth(t *testing.T) {
	d := dtest.Flat(2, 20)
	id := dtest.Unplaced(d, 4, 1, 5, 0)
	l, err := core.NewLegalizer(d, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ResizeCell(id, 30); !errors.Is(err, core.ErrCellTooWide) {
		t.Fatalf("resize beyond widest segment = %v, want ErrCellTooWide", err)
	}
	if got := d.Cell(id).W; got != 4 {
		t.Fatalf("width mutated to %d on rejected resize", got)
	}
	if err := l.ResizeCell(id, 18); err != nil {
		t.Fatalf("fitting width rejected: %v", err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSane(t, l, true)
}
