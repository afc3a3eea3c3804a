package bookshelf

import (
	"bytes"
	"testing"

	"mrlegal/internal/dtest"
	"mrlegal/internal/netlist"
)

// seedBenchmark produces the component files of a valid small benchmark
// named f, as the FuzzRead harness stores them, used as the fuzz seed
// corpus. It reads them back, so a seed that cannot be read fails the
// test instead of stopping at the aux file.
func seedBenchmark(t testing.TB) (aux, nodes, nets, pl, scl []byte) {
	d := dtest.Flat(4, 50)
	a := dtest.Placed(d, 4, 1, 10, 0)
	b := dtest.Unplaced(d, 3, 2, 20.5, 1.25)
	fx := dtest.Placed(d, 6, 1, 30, 3)
	d.Cell(fx).Fixed = true
	nl := netlist.New()
	nl.AddNet("n0",
		netlist.Pin{Cell: a, DX: 2, DY: 0.5},
		netlist.Pin{Cell: b, DX: 1, DY: 1},
	)
	nl.BuildIndex(len(d.Cells))
	fs := NewMemFS()
	if err := Write(fs, "f", d, nl); err != nil {
		t.Fatal(err)
	}
	get := func(name string) []byte {
		return append([]byte(nil), fs.Files[name].Bytes()...)
	}
	aux, nodes, nets, pl, scl = get("f.aux"), get("f.nodes"), get("f.nets"), get("f.pl"), get("f.scl")
	if _, _, err := Read(fs, "f.aux"); err != nil {
		t.Fatalf("the seed benchmark does not read: %v", err)
	}
	return aux, nodes, nets, pl, scl
}

// FuzzRead asserts the parser's robustness contract: arbitrary (corrupt,
// truncated, hostile) input must produce an error, never a panic or a
// hang, for any of the five files of a benchmark.
func FuzzRead(f *testing.F) {
	aux, nodes, nets, pl, scl := seedBenchmark(f)
	f.Add(aux, nodes, nets, pl, scl)
	// Truncations of every component.
	for _, cut := range []int{0, 1, 7} {
		trunc := func(b []byte) []byte {
			if cut >= len(b) {
				return nil
			}
			return b[:len(b)-cut]
		}
		f.Add(trunc(aux), trunc(nodes), trunc(nets), trunc(pl), trunc(scl))
	}
	// Classic corruption shapes: swapped sections, garbage tokens,
	// negative and overflowing numbers, missing counts.
	f.Add([]byte("RowBasedPlacement : f.nodes f.nets f.pl f.scl"), scl, pl, nets, nodes)
	f.Add(aux, []byte("UCLA nodes 1.0\nNumNodes : -5\n"), nets, pl, scl)
	f.Add(aux, nodes, []byte("UCLA nets 1.0\nNumNets : 1\nNetDegree : 99999999999999999999 n0\n"), pl, scl)
	f.Add(aux, nodes, nets, []byte("UCLA pl 1.0\nc0 1e308 -1e308 : N\n"), scl)
	f.Add(aux, nodes, nets, pl, []byte("UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\nEnd\n"))
	// A node of width 0 (design.AddMaster panics on it).
	f.Add(aux, bytes.Replace(nodes, []byte(" 800 "), []byte(" 0 "), 1), nets, pl, scl)

	f.Fuzz(func(t *testing.T, aux, nodes, nets, pl, scl []byte) {
		fs := NewMemFS()
		fs.Files["f.aux"] = bytes.NewBuffer(aux)
		fs.Files["f.nodes"] = bytes.NewBuffer(nodes)
		fs.Files["f.nets"] = bytes.NewBuffer(nets)
		fs.Files["f.pl"] = bytes.NewBuffer(pl)
		fs.Files["f.scl"] = bytes.NewBuffer(scl)
		// Must not panic; errors are the expected outcome for junk.
		d, nl, err := Read(fs, "f.aux")
		if err == nil && (d == nil || nl == nil) {
			t.Fatal("nil design/netlist with nil error")
		}
	})
}
