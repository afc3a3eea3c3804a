package bookshelf

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/netlist"
)

func TestRoundTripSmall(t *testing.T) {
	d := dtest.Flat(4, 50)
	a := dtest.Placed(d, 4, 1, 10, 0)
	b := dtest.Unplaced(d, 3, 2, 20.5, 1.25)
	fx := dtest.Placed(d, 6, 1, 30, 3)
	d.Cell(fx).Fixed = true
	nl := netlist.New()
	nl.AddNet("n0",
		netlist.Pin{Cell: a, DX: 2, DY: 0.5},
		netlist.Pin{Cell: b, DX: 1, DY: 1},
		netlist.Pin{Cell: design.NoCell, DX: 44, DY: 3},
	)
	nl.BuildIndex(len(d.Cells))

	fs := NewMemFS()
	if err := Write(fs, "t", d, nl); err != nil {
		t.Fatal(err)
	}
	want := []string{"t.aux", "t.nets", "t.nodes", "t.pl", "t.scl"}
	got := fs.Names()
	if len(got) != len(want) {
		t.Fatalf("files = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("files = %v", got)
		}
	}

	d2, nl2, err := Read(fs, "t.aux")
	if err != nil {
		t.Fatal(err)
	}
	if d2.SiteW != d.SiteW || d2.SiteH != d.SiteH {
		t.Fatalf("site geometry lost: %d %d", d2.SiteW, d2.SiteH)
	}
	if len(d2.Rows) != 4 || d2.Rows[0].Span != d.Rows[0].Span {
		t.Fatalf("rows lost: %+v", d2.Rows)
	}
	if len(d2.Cells) != len(d.Cells) {
		t.Fatalf("cells = %d", len(d2.Cells))
	}
	for i := range d.Cells {
		c1, c2 := &d.Cells[i], &d2.Cells[i]
		if c1.W != c2.W || c1.H != c2.H || c1.Fixed != c2.Fixed {
			t.Fatalf("cell %d mismatch", i)
		}
	}
	// Input positions come back through .pl: placed cells round-trip via
	// their coordinates, unplaced via GX/GY.
	if got := d2.Cells[a].GX; got != 10 {
		t.Fatalf("a.GX = %v", got)
	}
	if got := d2.Cells[b].GX; math.Abs(got-20.5) > 1e-9 {
		t.Fatalf("b.GX = %v", got)
	}
	if !d2.Cells[fx].Placed || d2.Cells[fx].X != 30 {
		t.Fatal("fixed cell not placed on read")
	}
	// Net pins: offsets survive the center-relative conversion; HPWL of
	// the two designs agrees when positions agree.
	if len(nl2.Nets) != 1 || len(nl2.Nets[0].Pins) != 3 {
		t.Fatalf("nets = %+v", nl2.Nets)
	}
	if nl2.Nets[0].Pins[2].Cell != design.NoCell {
		t.Fatal("pad pin lost")
	}
	h1, h2 := nl.HPWL(d), nl2.HPWL(d2)
	if math.Abs(h1-h2) > 1e-6 {
		t.Fatalf("HPWL %v vs %v", h1, h2)
	}
}

func TestRoundTripGenerated(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "bs", NumCells: 400, Density: 0.5, Seed: 77})
	fs := NewMemFS()
	if err := Write(fs, "bs", b.D, b.NL); err != nil {
		t.Fatal(err)
	}
	d2, nl2, err := Read(fs, "bs.aux")
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Cells) != len(b.D.Cells) || len(nl2.Nets) != len(b.NL.Nets) {
		t.Fatal("sizes mismatch")
	}
	// Cell sizes survive exactly.
	for i := range b.D.Cells {
		if b.D.Cells[i].W != d2.Cells[i].W || b.D.Cells[i].H != d2.Cells[i].H {
			t.Fatalf("cell %d size mismatch", i)
		}
	}
	// Write the reread design again: nodes/pl/scl/aux are byte-identical;
	// .nets is compared semantically (pin offsets are center-relative, so
	// the corner↔center conversion can differ in the last float ulp).
	fs2 := NewMemFS()
	if err := Write(fs2, "bs", d2, nl2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bs.aux", "bs.nodes", "bs.pl", "bs.scl"} {
		if fs.Files[name].String() != fs2.Files[name].String() {
			t.Fatalf("%s is not a write→read→write fixpoint", name)
		}
	}
	d3, nl3, err := Read(fs2, "bs.aux")
	if err != nil {
		t.Fatal(err)
	}
	if len(nl3.Nets) != len(nl2.Nets) {
		t.Fatal(".nets net count drifted")
	}
	for i := range nl2.Nets {
		if len(nl3.Nets[i].Pins) != len(nl2.Nets[i].Pins) {
			t.Fatalf("net %d pin count drifted", i)
		}
	}
	if h2, h3 := nl2.HPWL(d2), nl3.HPWL(d3); math.Abs(h2-h3) > 1e-6 {
		t.Fatalf(".nets HPWL drifted: %v vs %v", h2, h3)
	}
}

func TestReadErrors(t *testing.T) {
	// Missing aux entries.
	fs := NewMemFS()
	w, _ := fs.Create("x.aux")
	w.Write([]byte("RowBasedPlacement : x.nodes x.pl x.scl\n")) // no .nets
	w.Close()
	if _, _, err := Read(fs, "x.aux"); err == nil {
		t.Fatal("expected error for incomplete aux")
	}

	// Node off the site grid.
	fs = NewMemFS()
	files := map[string]string{
		"y.aux":   "RowBasedPlacement : y.nodes y.nets y.pl y.scl\n",
		"y.scl":   "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 2000\n Sitewidth : 200\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
		"y.nodes": "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n a 333 2000\n",
		"y.pl":    "UCLA pl 1.0\na 0 0 : N\n",
		"y.nets":  "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n",
	}
	for n, c := range files {
		w, _ := fs.Create(n)
		w.Write([]byte(c))
		w.Close()
	}
	if _, _, err := Read(fs, "y.aux"); err == nil || !strings.Contains(err.Error(), "site grid") {
		t.Fatalf("expected site-grid error, got %v", err)
	}

	// Unknown node in .pl.
	files["y.nodes"] = "UCLA nodes 1.0\n a 200 2000\n"
	files["y.pl"] = "UCLA pl 1.0\nzz 0 0 : N\n"
	for n, c := range files {
		w, _ := fs.Create(n)
		w.Write([]byte(c))
		w.Close()
	}
	if _, _, err := Read(fs, "y.aux"); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("expected unknown-node error, got %v", err)
	}
}

func TestSclParsesSubrows(t *testing.T) {
	fs := NewMemFS()
	files := map[string]string{
		"z.aux":   "RowBasedPlacement : z.nodes z.nets z.pl z.scl\n",
		"z.scl":   "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n Coordinate : 2000\n Height : 2000\n Sitewidth : 200\n SubrowOrigin : 400 NumSites : 30\nEnd\nCoreRow Horizontal\n Coordinate : 0\n Height : 2000\n Sitewidth : 200\n SubrowOrigin : 0 NumSites : 50\nEnd\n",
		"z.nodes": "UCLA nodes 1.0\n a 200 2000\n",
		"z.pl":    "UCLA pl 1.0\na 600 2000 : N\n",
		"z.nets":  "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n",
	}
	for n, c := range files {
		w, _ := fs.Create(n)
		w.Write([]byte(c))
		w.Close()
	}
	d, _, err := Read(fs, "z.aux")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 2 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	// Rows come out sorted by Y.
	if d.Rows[0].Y != 0 || d.Rows[1].Y != 1 {
		t.Fatalf("row order: %+v", d.Rows)
	}
	if d.Rows[1].Span.Lo != 2 || d.Rows[1].Span.Hi != 32 {
		t.Fatalf("row 1 span: %+v", d.Rows[1].Span)
	}
	if d.Cells[0].GX != 3 || d.Cells[0].GY != 1 {
		t.Fatalf("pl position: %+v", d.Cells[0])
	}
}

func TestDirFS(t *testing.T) {
	dir := t.TempDir()
	d := dtest.Flat(2, 20)
	dtest.Placed(d, 3, 1, 5, 0)
	if err := Write(DirFS(dir), "disk", d, netlist.New()); err != nil {
		t.Fatal(err)
	}
	d2, _, err := Read(DirFS(dir), "disk.aux")
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Cells) != 1 || d2.Cells[0].W != 3 {
		t.Fatal("disk roundtrip failed")
	}
}

// TestReadRejectsInvalidDesigns: files that parse but describe no usable
// design, or hold a malformed number, must give an error, not a panic or
// a design the engine misreads. A malformed number's error names the file
// and quotes the line.
func TestReadRejectsInvalidDesigns(t *testing.T) {
	rows := func(coords ...int) string {
		s := "UCLA scl 1.0\n"
		for _, c := range coords {
			s += fmt.Sprintf("CoreRow Horizontal\n Coordinate : %d\n Height : 2000\n Sitewidth : 200\n SubrowOrigin : 0 NumSites : 10\nEnd\n", c)
		}
		return s
	}
	// The pin line of base has no offsets: a part that may be left out
	// reads as absent.
	base := map[string]string{
		"v.aux":   "RowBasedPlacement : v.nodes v.nets v.pl v.scl\n",
		"v.nodes": "UCLA nodes 1.0\n a 200 2000\n",
		"v.scl":   rows(0, 2000),
		"v.pl":    "UCLA pl 1.0\na 0 0 : N\n",
		"v.nets":  "UCLA nets 1.0\nNetDegree : 1 n\n a I\n",
	}
	// read reads base with the content of one file replaced.
	read := func(file, content string) (*design.Design, error) {
		fs := NewMemFS()
		for name, c := range base {
			if name == file {
				c = content
			}
			fs.Files[name] = bytes.NewBufferString(c)
		}
		d, _, err := Read(fs, "v.aux")
		return d, err
	}
	if _, err := read("", ""); err != nil {
		t.Fatalf("the unedited benchmark: %v", err)
	}
	nets := func(pin string) string { return "UCLA nets 1.0\nNetDegree : 1 n\n " + pin + "\n" }
	cases := []struct {
		name, file, content string
		want                string // a part of the error, when the test pins one
	}{
		{"zero-width node", "v.nodes", "UCLA nodes 1.0\n a 0 2000\n", ""},
		{"two rows at one coordinate", "v.scl", rows(0, 0, 2000), ""},
		{"row span past 2^30", "v.scl", strings.Replace(rows(0, 2000), "NumSites : 10", "NumSites : 2000000000", 1), ""},
		{"NaN pin offset", "v.nets", nets("a I : NaN 0"), ""},
		{"terminal with no .pl line", "v.nodes", "UCLA nodes 1.0\n a 200 2000\n f 200 2000 terminal\n", ""},
		{"Coordinate not a number", "v.scl", strings.Replace(rows(0, 2000), "Coordinate : 0\n", "Coordinate : zero\n", 1),
			`bookshelf: v.scl: bad number in "Coordinate : zero"`},
		{"SubrowOrigin not decimal", "v.scl", strings.Replace(rows(0, 2000), "SubrowOrigin : 0 ", "SubrowOrigin : 0x10 ", 1),
			`bookshelf: v.scl: bad number in "SubrowOrigin : 0x10 NumSites : 10"`},
		{"pin offsets not numbers", "v.nets", nets("a I : abc xyz"), `bookshelf: v.nets: bad pin offset in "a I : abc xyz"`},
		{"pin offset with trailing junk", "v.nets", nets("a I : 1e9x 0"), `bookshelf: v.nets: bad pin offset in "a I : 1e9x 0"`},
		{".pl line without y", "v.pl", "UCLA pl 1.0\na 600\n", `bookshelf: v.pl: bad .pl line in "a 600"`},
		{"pin line with one offset", "v.nets", nets("a I : 5"), `bookshelf: v.nets: bad pin line in "a I : 5"`},
		{"pin offsets without a colon", "v.nets", nets("a I 5 7"), `bookshelf: v.nets: bad pin line in "a I 5 7"`},
		{"pin line with a sixth field", "v.nets", nets("a I : 5 7 9"), `bookshelf: v.nets: bad pin line in "a I : 5 7 9"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := read(c.file, c.content)
			if err == nil {
				t.Fatalf("read a design of %d rows and %d cells, want an error", len(d.Rows), len(d.Cells))
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}
