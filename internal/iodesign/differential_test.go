package iodesign

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/netlist"
)

// compareRead runs Read and referenceRead on in and reports the first
// difference: the error text (line number included), the design, the
// netlist with every cell's NetsOf, or Write's output against
// referenceWrite's. A successful read must also re-read from Write's
// output to the same design and netlist.
func compareRead(in []byte) error {
	d, nl, err := Read(bytes.NewReader(in))
	rd, rnl, rerr := referenceRead(bytes.NewReader(in))
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		return fmt.Errorf("error %v, reference %v", err, rerr)
	}
	if err != nil {
		if d != nil || nl != nil {
			return fmt.Errorf("a design alongside error %v", err)
		}
		return nil
	}
	if !reflect.DeepEqual(d, rd) {
		return fmt.Errorf("design %+v, reference %+v", d, rd)
	}
	if err := sameNetlist(nl, rnl, len(d.Cells)); err != nil {
		return err
	}
	var out, ref bytes.Buffer
	if err := Write(&out, d, nl); err != nil {
		return err
	}
	if err := referenceWrite(&ref, rd, rnl); err != nil {
		return err
	}
	if !bytes.Equal(out.Bytes(), ref.Bytes()) {
		return fmt.Errorf("Write gives\n%q\nreference\n%q", out.Bytes(), ref.Bytes())
	}
	d2, nl2, err := Read(bytes.NewReader(out.Bytes()))
	if err != nil {
		return fmt.Errorf("written design does not re-read: %v", err)
	}
	if !reflect.DeepEqual(d2, d) {
		return fmt.Errorf("re-read design %+v, want %+v", d2, d)
	}
	if err := sameNetlist(nl2, nl, len(d.Cells)); err != nil {
		return fmt.Errorf("re-read: %v", err)
	}
	return nil
}

// sameNetlist compares nets bit for bit (a pin offset may be NaN, which
// reflect.DeepEqual never calls equal), nil pin lists included, and checks
// got's NetsOf against the index the append-per-pin BuildIndex built.
func sameNetlist(got, want *netlist.Netlist, numCells int) error {
	if (got.Nets == nil) != (want.Nets == nil) || len(got.Nets) != len(want.Nets) {
		return fmt.Errorf("%d nets, want %d", len(got.Nets), len(want.Nets))
	}
	index := make([][]int32, numCells)
	for i := range want.Nets {
		g, w := &got.Nets[i], &want.Nets[i]
		if g.Name != w.Name || (g.Pins == nil) != (w.Pins == nil) || len(g.Pins) != len(w.Pins) {
			return fmt.Errorf("net %d is %q with %d pins, want %q with %d", i, g.Name, len(g.Pins), w.Name, len(w.Pins))
		}
		for j, p := range w.Pins {
			q := g.Pins[j]
			if q.Cell != p.Cell || math.Float64bits(q.DX) != math.Float64bits(p.DX) ||
				math.Float64bits(q.DY) != math.Float64bits(p.DY) {
				return fmt.Errorf("net %d pin %d is %+v, want %+v", i, j, q, p)
			}
			if p.Cell >= 0 && int(p.Cell) < numCells {
				index[p.Cell] = append(index[p.Cell], int32(i))
			}
		}
	}
	for c := range index {
		if g := got.NetsOf(design.CellID(c)); !reflect.DeepEqual(g, index[c]) {
			return fmt.Errorf("NetsOf(%d) = %v, want %v", c, g, index[c])
		}
	}
	return nil
}

// genText writes one random design text: a skeleton of every directive,
// with comments, blank lines, CRLF, tabs and Unicode spaces between
// fields. Half the texts are also noisy: odd number spellings, broken
// lines, stray fields and unknown directives mixed in.
func genText(rng *rand.Rand) []byte {
	var b strings.Builder
	noisy := rng.Intn(2) == 0
	noise := func(n int) bool { return noisy && rng.Intn(n) == 0 }
	eol := "\n"
	if rng.Intn(4) == 0 {
		eol = "\r\n"
	}
	seps := []string{"\t", "  ", " \t", "\v", "\f", "\u00a0", "\u0085", "\u2028", "\u3000"}
	sep := func() string {
		if rng.Intn(6) == 0 {
			return seps[rng.Intn(len(seps))]
		}
		return " "
	}
	odd := func() string {
		forms := []string{"+5", "0x10", "1_0", "-0", "99999999999999999999", "-9223372036854775809",
			"NaN", "+Inf", "-Inf", "inf", "0x1p-2", "1e3", ".5", "5.", "", "x", "\xff", "1\u00a02"}
		return forms[rng.Intn(len(forms))]
	}
	num := func(v int) string {
		if noise(30) {
			return odd()
		}
		return strconv.Itoa(v)
	}
	flt := func(v float64) string {
		if noise(30) {
			return odd()
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	name := func(prefix string, i int) string {
		switch rng.Intn(30) {
		case 0:
			return prefix + "\u00e9" + strconv.Itoa(i)
		case 1:
			return prefix + "\xfe" + strconv.Itoa(i)
		case 2:
			return "#" + prefix
		}
		return prefix + strconv.Itoa(i)
	}
	line := func(fields ...string) {
		if rng.Intn(10) == 0 {
			b.WriteString(sep())
		}
		if noise(25) && len(fields) > 1 {
			fields = fields[:rng.Intn(len(fields))] // a broken line
		}
		if noise(30) {
			fields = append(fields, odd()) // a stray field
		}
		for i, f := range fields {
			if i > 0 {
				b.WriteString(sep())
			}
			b.WriteString(f)
		}
		if rng.Intn(10) == 0 {
			b.WriteString(sep())
		}
		b.WriteString(eol)
	}
	extra := func() {
		switch rng.Intn(12) {
		case 0:
			line("#", "a", "comment")
		case 1:
			b.WriteString(eol)
		case 2:
			b.WriteString(sep() + eol)
		case 3:
			if noise(4) {
				line("frobnicate", "1")
			}
		}
	}

	if !noise(20) {
		line("design", name("d", 0), num(200), num(2000))
	}
	rows := 1 + rng.Intn(5)
	for y := 0; y < rows; y++ {
		extra()
		line("row", num(y), num(rng.Intn(3)), num(20+rng.Intn(30)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		line("blockage", num(rng.Intn(20)), num(rng.Intn(rows)), num(1+rng.Intn(4)), num(1))
	}
	masters := 1 + rng.Intn(4)
	for i := 0; i < masters; i++ {
		extra()
		rail := "VSS"
		if rng.Intn(2) == 0 {
			rail = "VDD"
		}
		line("master", name("m", i), num(1+rng.Intn(4)), num(1+rng.Intn(rows)), rail)
	}
	cells := rng.Intn(30)
	for i := 0; i < cells; i++ {
		extra()
		f := []string{"cell", name("c", i), num(rng.Intn(masters)), flt(rng.Float64() * 40), flt(float64(rng.Intn(rows)) + rng.Float64())}
		if rng.Intn(3) == 0 {
			f = append(f, "@", num(rng.Intn(40)), num(rng.Intn(rows)))
			if rng.Intn(8) == 0 {
				f = append(f, "@", num(rng.Intn(40)), num(rng.Intn(rows))) // placed twice
			}
			if rng.Intn(3) == 0 {
				f = append(f, "fixed")
			}
		}
		line(f...)
	}
	for i := rng.Intn(20); i > 0; i-- {
		extra()
		f := []string{"net", name("n", i)}
		for p := rng.Intn(5); p > 0; p-- {
			cell := "-"
			if cells > 0 && rng.Intn(5) != 0 {
				cell = num(rng.Intn(cells))
			}
			f = append(f, cell, flt(rng.Float64()*4), flt(rng.Float64()))
		}
		line(f...)
	}
	if rng.Intn(15) == 0 {
		line("design", name("d", 1), num(100), num(1000)) // a second header
	}
	out := b.String()
	if noise(10) {
		out = out[:rng.Intn(len(out)+1)] // truncated mid-line
	}
	return []byte(out)
}

// TestReadMatchesReference holds Read and Write to the reference codec on
// 2,000 generated texts from a fixed seed; the property test that
// FuzzRead continues from random bytes.
func TestReadMatchesReference(t *testing.T) {
	const texts = 2000
	rng := rand.New(rand.NewSource(19))
	ok := 0
	for i := 0; i < texts; i++ {
		in := genText(rng)
		if err := compareRead(in); err != nil {
			t.Fatalf("text %d:\n%s\n%v", i, in, err)
		}
		if _, _, err := Read(bytes.NewReader(in)); err == nil {
			ok++
		}
	}
	// Both outcomes must be exercised, or the generator has drifted.
	if ok < texts/4 || ok > texts*3/4 {
		t.Fatalf("%d of %d texts parse; want both successes and errors in bulk", ok, texts)
	}
}

// readSeeds are FuzzRead's seed corpus.
func readSeeds() []string {
	const head = "design d 200 2000\nrow 0 0 40\nrow 1 0 40\nmaster m 2 1 VSS\nmaster t 3 2 VDD\n"
	long := head + "cell a 0 1 0\nnet big" + strings.Repeat(" - 1.5 2", 180_000) + "\n"
	return []string{
		// Every directive, comments and blank lines.
		head + "# comment\n\nblockage 4 0 2 1\ncell a 0 1.5 0.25\ncell b 1 3 0 @ 3 0 fixed\nnet n 0 0.5 0.5 1 1 1 - 44 3\n",
		// CRLF line ends, tabs, leading and trailing space.
		"design\td\t200\t2000\r\n  row 0 0 40  \r\n\tmaster m 2 1 VSS\r\ncell a 0 1 0\r\n",
		// Unicode spaces inside and between fields: U+0085, U+00A0, U+2028
		// and U+3000 split fields, so "a\u00a0b" is two.
		"design d\u0085200\u00a02000\nrow\u20280\u30000 40\nmaster m\u00a02 1 VSS\ncell a\u00a0b 0 1 0\n",
		"design d 200 2000\nrow 0 0 40\nmaster m 2 1 VSS\ncell a\u00a0x 0 1 0\nnet n\u3000 0 0 0\n",
		// Number spellings strconv accepts or rejects.
		"design d +200 2000\nrow 0 +0 40\nmaster m 2 1 VSS\ncell a +0 -0 1e-3\n",
		"design d 0x10 2000\n",
		"design d 200 2000\nrow 0 0 1_0\n",
		"design d 200 2000\nrow -0 0 40\nmaster m 2 1 VSS\ncell a 0 -0 -0 @ -0 0\n",
		// Integers past int64 and non-finite or hex floats.
		"design d 99999999999999999999 2000\n",
		head + "cell a 0 1 0 @ 9223372036854775808 0\n",
		head + "cell a 0 NaN 0\n",
		head + "cell a 0 0x1p-2 0x1.8p1\nnet n 0 NaN +Inf - -Inf 0x1p3\n",
		// A cell placed twice, and a fixed cell with no position.
		head + "cell a 0 1 0 @ 1 0 @ 5 1\ncell f 0 9 0 fixed\n",
		// Errors on each directive.
		head + "cell a 0 1\n",
		head + "net n 0 1\n",
		"row 0 0 10\n",
		"design d 200 2000\nrow 0 0 40\nmaster m 2 1 GND\n",
		"",
		// A second header keeps the nets read before it.
		head + "cell a 0 1 0\nnet n 0 0 0\ndesign e 100 1000\nrow 0 0 9\n",
		// Invalid UTF-8 in names.
		head + "cell \xff\xfe 0 1 0\nnet \xc3 0 0 0\n",
		// One line longer than the scanner's initial 1 MiB buffer.
		long,
	}
}

// FuzzRead: on any input, Read and Write must match the reference codec
// (compareRead). make fuzz-design runs it.
func FuzzRead(f *testing.F) {
	for _, s := range readSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if err := compareRead([]byte(in)); err != nil {
			t.Fatal(err)
		}
	})
}
