package netlist_test

import (
	"math"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/netlist"
)

func TestNetHPWLBasics(t *testing.T) {
	d := dtest.Flat(4, 100) // SiteW=200, SiteH=2000
	a := dtest.Placed(d, 2, 1, 0, 0)
	b := dtest.Placed(d, 2, 1, 10, 2)
	nl := netlist.New()
	ni := nl.AddNet("n",
		netlist.Pin{Cell: a, DX: 1, DY: 0.5},
		netlist.Pin{Cell: b, DX: 1, DY: 0.5},
	)
	// dx = 10 sites ·200 = 2000; dy = 2 rows ·2000 = 4000 → HPWL 6000.
	if got := nl.NetHPWL(d, ni); got != 6000 {
		t.Fatalf("NetHPWL = %v, want 6000", got)
	}
	if got := nl.HPWL(d); got != 6000 {
		t.Fatalf("HPWL = %v", got)
	}
}

func TestHPWLUsesGPWhenUnplaced(t *testing.T) {
	d := dtest.Flat(4, 100)
	a := dtest.Unplaced(d, 2, 1, 5, 1) // GX=5, GY=1
	b := dtest.Unplaced(d, 2, 1, 8.5, 1)
	nl := netlist.New()
	nl.AddNet("n", netlist.Pin{Cell: a}, netlist.Pin{Cell: b})
	// dx = 3.5·200 = 700.
	if got := nl.HPWL(d); math.Abs(got-700) > 1e-9 {
		t.Fatalf("HPWL = %v, want 700", got)
	}
	d.Place(a, 5, 1)
	d.Place(b, 9, 1)
	if got := nl.HPWL(d); got != 800 {
		t.Fatalf("HPWL after placing = %v, want 800", got)
	}
}

func TestPadPins(t *testing.T) {
	d := dtest.Flat(4, 100)
	a := dtest.Placed(d, 2, 1, 0, 0)
	nl := netlist.New()
	nl.AddNet("n",
		netlist.Pin{Cell: a, DX: 0, DY: 0},
		netlist.Pin{Cell: design.NoCell, DX: 50, DY: 2}, // absolute pad
	)
	// dx = 50·200 = 10000; dy = 2·2000 = 4000.
	if got := nl.HPWL(d); got != 14000 {
		t.Fatalf("HPWL = %v, want 14000", got)
	}
}

func TestSinglePinNetZero(t *testing.T) {
	d := dtest.Flat(2, 10)
	a := dtest.Placed(d, 2, 1, 0, 0)
	nl := netlist.New()
	nl.AddNet("n", netlist.Pin{Cell: a})
	if nl.HPWL(d) != 0 {
		t.Fatal("single-pin net should contribute 0")
	}
}

func TestBuildIndexAndNetsOf(t *testing.T) {
	d := dtest.Flat(2, 20)
	a := dtest.Placed(d, 2, 1, 0, 0)
	b := dtest.Placed(d, 2, 1, 5, 0)
	c := dtest.Placed(d, 2, 1, 10, 0)
	nl := netlist.New()
	n0 := nl.AddNet("n0", netlist.Pin{Cell: a}, netlist.Pin{Cell: b})
	n1 := nl.AddNet("n1", netlist.Pin{Cell: b}, netlist.Pin{Cell: c})
	nl.BuildIndex(len(d.Cells))
	if got := nl.NetsOf(b); len(got) != 2 || int(got[0]) != n0 || int(got[1]) != n1 {
		t.Fatalf("NetsOf(b) = %v", got)
	}
	if got := nl.NetsOf(a); len(got) != 1 {
		t.Fatalf("NetsOf(a) = %v", got)
	}
}

func TestNetsOfPanicsWithoutIndex(t *testing.T) {
	nl := netlist.New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nl.NetsOf(0)
}

func TestHPWLDelta(t *testing.T) {
	if netlist.HPWLDelta(100, 103) != 0.03 {
		t.Fatal("delta wrong")
	}
	if netlist.HPWLDelta(0, 5) != 0 {
		t.Fatal("zero baseline should give 0")
	}
}

func TestValidate(t *testing.T) {
	d := dtest.Flat(2, 20)
	a := dtest.Placed(d, 2, 1, 0, 0)
	nl := netlist.New()
	nl.AddNet("ok", netlist.Pin{Cell: a}, netlist.Pin{Cell: design.NoCell, DX: 1, DY: 1})
	if err := nl.Validate(d); err != nil {
		t.Fatal(err)
	}
	nl.AddNet("bad", netlist.Pin{Cell: 99})
	if err := nl.Validate(d); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestValidateRejectsNonFiniteOffset: a NaN or infinite pin offset, on a
// cell pin or a pad, makes HPWL meaningless, so Validate rejects it.
func TestValidateRejectsNonFiniteOffset(t *testing.T) {
	d := dtest.Flat(2, 20)
	a := dtest.Placed(d, 2, 1, 0, 0)
	for _, p := range []netlist.Pin{
		{Cell: a, DX: math.NaN()},
		{Cell: a, DY: math.Inf(1)},
		{Cell: design.NoCell, DX: math.Inf(-1)},
	} {
		nl := netlist.New()
		nl.AddNet("n", netlist.Pin{Cell: a}, p)
		if err := nl.Validate(d); err == nil {
			t.Errorf("pin %+v passed", p)
		}
	}
}
