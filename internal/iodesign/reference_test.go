package iodesign

// The text codec as it stood before Read and Write worked on bytes in
// place, kept (renamed) as the reference the byte-level versions must
// match: the same design and netlist or the same error at the same line,
// and byte-identical output. The checks on values that Design.Validate
// and Netlist.Validate now make once the text is in (master sizes, finite
// input positions, pin cells past the last cell) left both parsers alike.
// Those two validators and netlist.BuildIndex are shared;
// TestBuildIndexMatchesReference in internal/netlist pins the latter.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/netlist"
)

// referenceWrite serializes d (and nl, which may be nil) to w.
func referenceWrite(w io.Writer, d *design.Design, nl *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# mrlegal design format v1\n")
	fmt.Fprintf(bw, "design %s %d %d\n", referenceEscape(d.Name), d.SiteW, d.SiteH)
	for i := range d.Rows {
		r := &d.Rows[i]
		fmt.Fprintf(bw, "row %d %d %d\n", r.Y, r.Span.Lo, r.Span.Hi)
	}
	for _, b := range d.Blockages {
		fmt.Fprintf(bw, "blockage %d %d %d %d\n", b.X, b.Y, b.W, b.H)
	}
	for i := range d.Lib {
		m := &d.Lib[i]
		fmt.Fprintf(bw, "master %s %d %d %v\n", referenceEscape(m.Name), m.Width, m.Height, m.BottomRail)
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		fmt.Fprintf(bw, "cell %s %d %g %g", referenceEscape(c.Name), c.Master, c.GX, c.GY)
		if c.Placed {
			fmt.Fprintf(bw, " @ %d %d", c.X, c.Y)
		}
		if c.Fixed {
			fmt.Fprintf(bw, " fixed")
		}
		fmt.Fprintln(bw)
	}
	if nl != nil {
		for i := range nl.Nets {
			n := &nl.Nets[i]
			fmt.Fprintf(bw, "net %s", referenceEscape(n.Name))
			for _, p := range n.Pins {
				if p.Cell == design.NoCell {
					fmt.Fprintf(bw, " - %g %g", p.DX, p.DY)
				} else {
					fmt.Fprintf(bw, " %d %g %g", p.Cell, p.DX, p.DY)
				}
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// referenceEscape makes a name one field of its line: Read splits fields on every
// unicode.IsSpace rune (and lines on '\n'), so each such rune becomes '_'.
// Other bytes, invalid UTF-8 included, pass through unchanged.
func referenceEscape(s string) string {
	if s == "" {
		return "_"
	}
	i := 0
	for i < len(s) && s[i] > ' ' && s[i] < utf8.RuneSelf {
		i++ // printable ASCII, never a space rune
	}
	if i == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for len(s) > 0 {
		r, n := utf8.DecodeRuneInString(s)
		if unicode.IsSpace(r) {
			b.WriteByte('_')
		} else {
			b.WriteString(s[:n])
		}
		s = s[n:]
	}
	return b.String()
}

// referenceRead parses a design and netlist from r. The returned netlist is empty
// (not nil) when the input has no net lines.
func referenceRead(r io.Reader) (*design.Design, *netlist.Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	var d *design.Design
	nl := netlist.New()
	lineNo := 0
	fail := func(format string, args ...any) error {
		return fmt.Errorf("iodesign: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	needDesign := func() error {
		if d == nil {
			return fail("directive before 'design' header")
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "design":
			if len(f) != 4 {
				return nil, nil, fail("design wants 3 args")
			}
			sw, err1 := strconv.ParseInt(f[2], 10, 64)
			sh, err2 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil || sw <= 0 || sh <= 0 {
				return nil, nil, fail("bad site dimensions %q %q", f[2], f[3])
			}
			d = design.New(f[1], sw, sh)
		case "row":
			if err := needDesign(); err != nil {
				return nil, nil, err
			}
			v, err := referenceInts(f[1:], 3)
			if err != nil {
				return nil, nil, fail("row: %v", err)
			}
			d.Rows = append(d.Rows, design.Row{Y: v[0], Span: geom.Span{Lo: v[1], Hi: v[2]}})
		case "blockage":
			if err := needDesign(); err != nil {
				return nil, nil, err
			}
			v, err := referenceInts(f[1:], 4)
			if err != nil {
				return nil, nil, fail("blockage: %v", err)
			}
			d.Blockages = append(d.Blockages, geom.Rect{X: v[0], Y: v[1], W: v[2], H: v[3]})
		case "master":
			if err := needDesign(); err != nil {
				return nil, nil, err
			}
			if len(f) != 5 {
				return nil, nil, fail("master wants 4 args")
			}
			v, err := referenceInts(f[2:4], 2)
			if err != nil {
				return nil, nil, fail("master: %v", err)
			}
			rail := design.VSS
			switch f[4] {
			case "VSS":
			case "VDD":
				rail = design.VDD
			default:
				return nil, nil, fail("bad rail %q", f[4])
			}
			d.Lib = append(d.Lib, design.Master{Name: f[1], Width: v[0], Height: v[1], BottomRail: rail})
		case "cell":
			if err := needDesign(); err != nil {
				return nil, nil, err
			}
			if len(f) < 5 {
				return nil, nil, fail("cell wants at least 4 args")
			}
			mi, err := strconv.Atoi(f[2])
			if err != nil || mi < 0 || mi >= len(d.Lib) {
				return nil, nil, fail("bad master index %q", f[2])
			}
			gx, err1 := strconv.ParseFloat(f[3], 64)
			gy, err2 := strconv.ParseFloat(f[4], 64)
			if err1 != nil || err2 != nil {
				return nil, nil, fail("bad input position")
			}
			id := d.AddCell(f[1], mi, gx, gy)
			rest := f[5:]
			for len(rest) > 0 {
				switch rest[0] {
				case "@":
					if len(rest) < 3 {
						return nil, nil, fail("@ wants x y")
					}
					v, err := referenceInts(rest[1:3], 2)
					if err != nil {
						return nil, nil, fail("placement: %v", err)
					}
					d.Place(id, v[0], v[1])
					rest = rest[3:]
				case "fixed":
					d.Cell(id).Fixed = true
					rest = rest[1:]
				default:
					return nil, nil, fail("unknown cell attribute %q", rest[0])
				}
			}
		case "net":
			if err := needDesign(); err != nil {
				return nil, nil, err
			}
			if (len(f)-2)%3 != 0 {
				return nil, nil, fail("net pins must come in (cell dx dy) triples")
			}
			var pins []netlist.Pin
			for i := 2; i < len(f); i += 3 {
				var cid design.CellID = design.NoCell
				if f[i] != "-" {
					ci, err := strconv.Atoi(f[i])
					if err != nil || ci < 0 {
						return nil, nil, fail("bad pin cell %q", f[i])
					}
					cid = design.CellID(ci)
				}
				dx, err1 := strconv.ParseFloat(f[i+1], 64)
				dy, err2 := strconv.ParseFloat(f[i+2], 64)
				if err1 != nil || err2 != nil {
					return nil, nil, fail("bad pin offset")
				}
				pins = append(pins, netlist.Pin{Cell: cid, DX: dx, DY: dy})
			}
			nl.AddNet(f[1], pins...)
		default:
			return nil, nil, fail("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("iodesign: %w", err)
	}
	if d == nil {
		return nil, nil, fmt.Errorf("iodesign: no design header found")
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if err := nl.Validate(d); err != nil {
		return nil, nil, err
	}
	nl.BuildIndex(len(d.Cells))
	return d, nl, nil
}

func referenceInts(fields []string, n int) ([]int, error) {
	if len(fields) < n {
		return nil, fmt.Errorf("want %d integers, have %d fields", n, len(fields))
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		v, err := strconv.Atoi(fields[i])
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", fields[i])
		}
		out[i] = v
	}
	return out, nil
}
