package iodesign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/netlist"
	"mrlegal/internal/verify"
)

func TestRoundTripSmall(t *testing.T) {
	d := dtest.Flat(4, 50)
	d.Blockages = append(d.Blockages, geom.Rect{X: 5, Y: 1, W: 3, H: 2})
	a := dtest.Placed(d, 4, 1, 10, 0)
	b := dtest.Unplaced(d, 4, 2, 20.5, 1.25)
	fx := dtest.Placed(d, 6, 1, 30, 3)
	d.Cell(fx).Fixed = true
	nl := netlist.New()
	nl.AddNet("n0",
		netlist.Pin{Cell: a, DX: 2, DY: 0.5},
		netlist.Pin{Cell: b, DX: 1, DY: 1},
		netlist.Pin{Cell: design.NoCell, DX: 44, DY: 3},
	)
	nl.BuildIndex(len(d.Cells))

	var buf bytes.Buffer
	if err := Write(&buf, d, nl); err != nil {
		t.Fatal(err)
	}
	d2, nl2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != d.Name || d2.SiteW != d.SiteW || d2.SiteH != d.SiteH {
		t.Fatal("header mismatch")
	}
	if len(d2.Rows) != len(d.Rows) || len(d2.Blockages) != 1 || len(d2.Lib) != len(d.Lib) {
		t.Fatalf("structure mismatch: %d rows %d blockages %d masters",
			len(d2.Rows), len(d2.Blockages), len(d2.Lib))
	}
	if len(d2.Cells) != len(d.Cells) {
		t.Fatal("cell count mismatch")
	}
	for i := range d.Cells {
		c1, c2 := &d.Cells[i], &d2.Cells[i]
		if c1.W != c2.W || c1.H != c2.H || c1.GX != c2.GX || c1.GY != c2.GY ||
			c1.Placed != c2.Placed || c1.Fixed != c2.Fixed {
			t.Fatalf("cell %d mismatch: %+v vs %+v", i, c1, c2)
		}
		if c1.Placed && (c1.X != c2.X || c1.Y != c2.Y) {
			t.Fatalf("cell %d position mismatch", i)
		}
	}
	if len(nl2.Nets) != 1 || len(nl2.Nets[0].Pins) != 3 {
		t.Fatal("net mismatch")
	}
	if nl2.Nets[0].Pins[2].Cell != design.NoCell {
		t.Fatal("pad pin lost")
	}
	if got, want := nl2.HPWL(d2), nl.HPWL(d); got != want {
		t.Fatalf("HPWL after roundtrip %v != %v", got, want)
	}
}

func TestRoundTripGenerated(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "rt", NumCells: 300, Density: 0.5, Seed: 21})
	var buf bytes.Buffer
	if err := Write(&buf, b.D, b.NL); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	d2, nl2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Cells) != len(b.D.Cells) || len(nl2.Nets) != len(b.NL.Nets) {
		t.Fatal("sizes mismatch")
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, d2, nl2); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Fatal("write → read → write is not a fixpoint")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"row 0 0 10",                          // before design
		"design d 200 2000\nrow 0 0",          // short row
		"design d 200 2000\nmaster m 2 1 ABC", // bad rail
		"design d 200 2000\ncell c 0 1 2",     // master out of range
		"design d 200 2000\nfrobnicate",       // unknown directive
		"design d 0 2000",                     // bad site
		"design d 200 2000\nnet n 0 1",        // pins not in triples
		"design d 200 2000\nnet n 5 0.0 0.0",  // pin cell out of range
		"",                                    // no header
		"design d 200 2000\nmaster m 2 1 VSS\ncell c 0 1 2 @ 1", // short placement

		// Shapes downstream consumers would panic on must be errors here:
		// design.AddMaster panics on non-positive sizes, and the segment
		// grid indexes rows by their Y field.
		"design d 200 2000\nrow 0 0 10\nmaster m 0 1 VSS",                     // zero-width master
		"design d 200 2000\nrow 0 0 10\nmaster m 2 0 VSS",                     // zero-height master
		"design d 200 2000\nrow 0 0 10\nmaster m 2 -1 VSS",                    // negative height
		"design d 200 2000\nrow 0 0 10\nmaster m 2 5 VSS",                     // taller than the design
		"design d 200 2000\nrow 1 0 10",                                       // row index out of range
		"design d 200 2000\nrow 0 0 10\nrow 0 0 10",                           // duplicate row index
		"design d 200 2000\nrow -1 0 10",                                      // negative row index
		"design d 200 2000\nrow 0 10 10",                                      // empty row span
		"design d 200 2000\nrow 0 0 10\nmaster m 2 1 VSS\ncell c 0 1 2 @ 3 7", // placed off the rows
		"design d 200 2000\nrow 0 0 10\nmaster m 2 1 VSS\ncell c 0 NaN 2",     // non-finite input position
		"design d 200 2000\nrow 0 0 10\nmaster m 2 1 VSS\ncell c 0 1 +Inf",    // non-finite input position
	}
	for i, c := range cases {
		if _, _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestReadIgnoresCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
design d 200 2000

row 0 0 10
# another
master m 2 1 VSS
cell c 0 1.5 0.25
`
	d, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 1 || len(d.Cells) != 1 || d.Cells[0].GX != 1.5 {
		t.Fatalf("parse result wrong: %+v", d)
	}
}

// TestRoundTripWhitespaceNames: Read splits fields on every Unicode space
// rune and lines on '\n', so Write must turn each such rune in a name
// into '_' or the output stops parsing (a '\n' would even inject a line).
func TestRoundTripWhitespaceNames(t *testing.T) {
	names := []string{"a b", "a\tb", "a\rb", "a\nb", "a\u00a0b", "a\u2028b", "a\u3000\u0085b", "\tlead", "trail ", ""}
	want := []string{"a_b", "a_b", "a_b", "a_b", "a_b", "a_b", "a__b", "_lead", "trail_", "_"}
	d := design.New("d\tx", 200, 2000)
	d.Rows = append(d.Rows, design.Row{Y: 0, Span: geom.Span{Lo: 0, Hi: 100}})
	nl := netlist.New()
	for i, name := range names {
		m := d.AddMaster(design.Master{Name: name, Width: 1, Height: 1, BottomRail: design.VSS})
		id := d.AddCell(name, m, float64(i), 0)
		nl.AddNet(name, netlist.Pin{Cell: id})
	}
	var buf bytes.Buffer
	if err := Write(&buf, d, nl); err != nil {
		t.Fatal(err)
	}
	d2, nl2, err := Read(&buf)
	if err != nil {
		t.Fatalf("written design does not parse: %v", err)
	}
	if d2.Name != "d_x" {
		t.Errorf("design name %q, want %q", d2.Name, "d_x")
	}
	if len(d2.Cells) != len(names) || len(d2.Lib) != len(names) || len(nl2.Nets) != len(names) {
		t.Fatalf("read %d cells, %d masters, %d nets; want %d each",
			len(d2.Cells), len(d2.Lib), len(nl2.Nets), len(names))
	}
	for i := range names {
		if d2.Cells[i].Name != want[i] || d2.Lib[i].Name != want[i] || nl2.Nets[i].Name != want[i] {
			t.Errorf("name %q read back as cell %q, master %q, net %q; want %q",
				names[i], d2.Cells[i].Name, d2.Lib[i].Name, nl2.Nets[i].Name, want[i])
		}
		if d2.Cells[i].GX != float64(i) || nl2.Nets[i].Pins[0].Cell != design.CellID(i) {
			t.Errorf("cell %d fields shifted after its name", i)
		}
	}
}

// TestReadRejectsInvalidDesigns: each text parses line by line, but the
// design it describes would crash the engine or give a wrong answer, so
// Read must return an error (and not panic).
func TestReadRejectsInvalidDesigns(t *testing.T) {
	const head = "design d 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\ncell a 0 1 0\ncell b 0 5 0\n"
	cases := []struct{ name, in string }{
		// A second header drops the cells read before it, not the nets.
		{"net on a dropped cell", head + "net n 0 0 0 1 0 0\ndesign e 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\ncell z 0 1 0\n"},
		{"fixed cell without a position", head + "cell f 0 9 0 fixed\n"},
		{"NaN pin offset", head + "net n 0 NaN 0 1 0 0\n"},
		{"row span past 2^30", "design d 200 2000\nrow 0 -9223372036854775800 9223372036854775800\nmaster m 1 1 VSS\ncell a 0 1 0\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if d, _, err := Read(strings.NewReader(c.in)); err == nil {
				t.Fatalf("read a design of %d rows and %d cells, want an error", len(d.Rows), len(d.Cells))
			}
		})
	}
}

// TestReadRowsInAnyOrder: rows may be listed in any order. The blockage
// on row 0 must block row 0 whatever the order, so the cells legalize
// beside it.
func TestReadRowsInAnyOrder(t *testing.T) {
	const in = "design d 200 2000\nrow 1 0 40\nrow 0 0 40\nblockage 0 0 20 1\n" +
		"master m 4 1 VSS\ncell a 0 2 0\ncell b 0 8 0\n"
	d, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := verify.Check(d, verify.Options{RequirePlaced: true, PowerAlignment: true}, 10); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}
