// Package iodesign reads and writes designs (and optional netlists) in a
// simple line-oriented text format, so the cmd/ tools can be piped
// together:
//
//	design <name> <siteW> <siteH>
//	row <y> <spanLo> <spanHi>
//	blockage <x> <y> <w> <h>
//	master <name> <width> <height> <VSS|VDD>
//	cell <name> <masterIndex> <gx> <gy> [@ <x> <y>] [fixed]
//	net <name> <pin>... where <pin> = <cellIndex|-> <dx> <dy>
//
// Lines starting with '#' and blank lines are ignored. Cell and master
// indices refer to declaration order. The format is deliberately small —
// the real-world equivalents are LEF/DEF/Bookshelf, out of scope here.
package iodesign

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/netlist"
)

// writeChunk is how much output Write collects before it writes to w. Its
// buffer holds twice that, so a line shorter than writeChunk never grows it.
const writeChunk = 32 << 10

// Write serializes d (and nl, which may be nil) to w. It appends each line
// with strconv into one reused buffer; %g formatting is
// strconv.AppendFloat(b, v, 'g', -1, 64).
func Write(w io.Writer, d *design.Design, nl *netlist.Netlist) error {
	b := make([]byte, 0, 2*writeChunk)
	var err error
	line := func() {
		b = append(b, '\n')
		if len(b) >= writeChunk {
			if err == nil {
				_, err = w.Write(b)
			}
			b = b[:0]
		}
	}
	b = append(b, "# mrlegal design format v1\n"...)
	b = append(b, "design "...)
	b = appendName(b, d.Name)
	b = appendInt(b, d.SiteW)
	b = appendInt(b, d.SiteH)
	line()
	for i := range d.Rows {
		r := &d.Rows[i]
		b = append(b, "row"...)
		b = appendInt(b, int64(r.Y))
		b = appendInt(b, int64(r.Span.Lo))
		b = appendInt(b, int64(r.Span.Hi))
		line()
	}
	for _, k := range d.Blockages {
		b = append(b, "blockage"...)
		b = appendInt(b, int64(k.X))
		b = appendInt(b, int64(k.Y))
		b = appendInt(b, int64(k.W))
		b = appendInt(b, int64(k.H))
		line()
	}
	for i := range d.Lib {
		m := &d.Lib[i]
		b = append(b, "master "...)
		b = appendName(b, m.Name)
		b = appendInt(b, int64(m.Width))
		b = appendInt(b, int64(m.Height))
		b = append(b, ' ')
		b = append(b, m.BottomRail.String()...)
		line()
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		b = append(b, "cell "...)
		b = appendName(b, c.Name)
		b = appendInt(b, int64(c.Master))
		b = appendFloat(b, c.GX)
		b = appendFloat(b, c.GY)
		if c.Placed {
			b = append(b, " @"...)
			b = appendInt(b, int64(c.X))
			b = appendInt(b, int64(c.Y))
		}
		if c.Fixed {
			b = append(b, " fixed"...)
		}
		line()
	}
	if nl != nil {
		for i := range nl.Nets {
			n := &nl.Nets[i]
			b = append(b, "net "...)
			b = appendName(b, n.Name)
			for _, p := range n.Pins {
				if p.Cell == design.NoCell {
					b = append(b, " -"...)
				} else {
					b = appendInt(b, int64(p.Cell))
				}
				b = appendFloat(b, p.DX)
				b = appendFloat(b, p.DY)
			}
			line()
		}
	}
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendInt appends a space and v in decimal, as " %d" would.
func appendInt(b []byte, v int64) []byte {
	return strconv.AppendInt(append(b, ' '), v, 10)
}

// appendFloat appends a space and v as " %g" would.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64)
}

// appendName appends s as one field of its line: Read splits fields on
// every unicode.IsSpace rune (and lines on '\n'), so each such rune becomes
// '_', and so does an empty name. Other bytes, invalid UTF-8 included, pass
// through unchanged.
func appendName(b []byte, s string) []byte {
	if s == "" {
		return append(b, '_')
	}
	i := 0
	for i < len(s) && s[i] > ' ' && s[i] < utf8.RuneSelf {
		i++ // printable ASCII, never a space rune
	}
	b = append(b, s[:i]...)
	for s = s[i:]; len(s) > 0; {
		r, n := utf8.DecodeRuneInString(s)
		if unicode.IsSpace(r) {
			b = append(b, '_')
		} else {
			b = append(b, s[:n]...)
		}
		s = s[n:]
	}
	return b
}

// Read parses a design and netlist from r. The returned netlist is empty
// (not nil) when the input has no net lines. Rows may be listed in any
// order. Once the whole text is in, the design and netlist Validate
// methods check what the parser leaves to them: row indices, spans,
// sizes, finite positions, fixed cells placed, pin cells and offsets.
//
// Fields are sub-slices of the scanner's buffer, cut exactly where
// strings.Fields would cut the line, and numbers parse from them in
// place, so names are the only strings Read allocates; the nets' pin lists
// share a slab.
func Read(r io.Reader) (*design.Design, *netlist.Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	p := parser{nl: netlist.New()}
	for sc.Scan() {
		p.lineNo++
		if err := p.parseLine(sc.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("iodesign: %w", err)
	}
	d := p.d
	if d == nil {
		return nil, nil, fmt.Errorf("iodesign: no design header found")
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if err := p.nl.Validate(d); err != nil {
		return nil, nil, err
	}
	p.nl.BuildIndex(len(d.Cells))
	return d, p.nl, nil
}

// Pin slab chunks start at minSlab pins and double up to maxSlab. A chunk
// is never grown in place, since the nets carved from it keep their slices.
const (
	minSlab = 64
	maxSlab = 1 << 14
)

// parser is Read's state between lines.
type parser struct {
	d      *design.Design
	nl     *netlist.Netlist
	lineNo int
	f      [][]byte      // the current line's fields, reused line to line
	pins   []netlist.Pin // the open slab chunk
}

func (p *parser) fail(format string, args ...any) error {
	return fmt.Errorf("iodesign: line %d: %s", p.lineNo, fmt.Sprintf(format, args...))
}

func (p *parser) needDesign() error {
	if p.d == nil {
		return p.fail("directive before 'design' header")
	}
	return nil
}

// asciiSpace reports whether c is one of the bytes unicode.IsSpace reports
// below utf8.RuneSelf.
func asciiSpace(c byte) bool {
	const mask = 1<<'\t' | 1<<'\n' | 1<<'\v' | 1<<'\f' | 1<<'\r' | 1<<' '
	return c <= ' ' && mask>>c&1 != 0
}

// split sets p.f to the fields of line, as strings.Fields splits them: on
// ASCII spaces while every byte is ASCII; from the first non-ASCII byte on,
// the whole line is split again on every unicode.IsSpace rune (an invalid
// byte decodes to utf8.RuneError, which is not a space).
func (p *parser) split(line []byte) {
	f := p.f[:0]
	start := -1 // where the open field starts, or -1 between fields
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			p.f = bytes.FieldsFunc(line, unicode.IsSpace)
			return
		case asciiSpace(c):
			if start >= 0 {
				f = append(f, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	p.f = f
}

func (p *parser) parseLine(line []byte) error {
	p.split(line)
	f := p.f
	if len(f) == 0 || f[0][0] == '#' {
		return nil
	}
	switch string(f[0]) {
	case "design":
		if len(f) != 4 {
			return p.fail("design wants 3 args")
		}
		sw, err1 := strconv.ParseInt(string(f[2]), 10, 64)
		sh, err2 := strconv.ParseInt(string(f[3]), 10, 64)
		if err1 != nil || err2 != nil || sw <= 0 || sh <= 0 {
			return p.fail("bad site dimensions %q %q", f[2], f[3])
		}
		p.d = design.New(string(f[1]), sw, sh)
	case "row":
		if err := p.needDesign(); err != nil {
			return err
		}
		v, err := ints(f[1:], 3)
		if err != nil {
			return p.fail("row: %v", err)
		}
		p.d.Rows = append(p.d.Rows, design.Row{Y: v[0], Span: geom.Span{Lo: v[1], Hi: v[2]}})
	case "blockage":
		if err := p.needDesign(); err != nil {
			return err
		}
		v, err := ints(f[1:], 4)
		if err != nil {
			return p.fail("blockage: %v", err)
		}
		p.d.Blockages = append(p.d.Blockages, geom.Rect{X: v[0], Y: v[1], W: v[2], H: v[3]})
	case "master":
		if err := p.needDesign(); err != nil {
			return err
		}
		if len(f) != 5 {
			return p.fail("master wants 4 args")
		}
		v, err := ints(f[2:4], 2)
		if err != nil {
			return p.fail("master: %v", err)
		}
		rail := design.VSS
		switch string(f[4]) {
		case "VSS":
		case "VDD":
			rail = design.VDD
		default:
			return p.fail("bad rail %q", f[4])
		}
		// Appended rather than added: design.AddMaster panics on a
		// non-positive size, which Validate reports as an error.
		p.d.Lib = append(p.d.Lib, design.Master{Name: string(f[1]), Width: v[0], Height: v[1], BottomRail: rail})
	case "cell":
		return p.cell(f)
	case "net":
		return p.net(f)
	default:
		return p.fail("unknown directive %q", f[0])
	}
	return nil
}

func (p *parser) cell(f [][]byte) error {
	if err := p.needDesign(); err != nil {
		return err
	}
	d := p.d
	if len(f) < 5 {
		return p.fail("cell wants at least 4 args")
	}
	mi, err := strconv.Atoi(string(f[2]))
	if err != nil || mi < 0 || mi >= len(d.Lib) {
		return p.fail("bad master index %q", f[2])
	}
	gx, err1 := strconv.ParseFloat(string(f[3]), 64)
	gy, err2 := strconv.ParseFloat(string(f[4]), 64)
	if err1 != nil || err2 != nil {
		return p.fail("bad input position")
	}
	id := d.AddCell(string(f[1]), mi, gx, gy)
	rest := f[5:]
	for len(rest) > 0 {
		switch string(rest[0]) {
		case "@":
			if len(rest) < 3 {
				return p.fail("@ wants x y")
			}
			v, err := ints(rest[1:3], 2)
			if err != nil {
				return p.fail("placement: %v", err)
			}
			d.Place(id, v[0], v[1])
			rest = rest[3:]
		case "fixed":
			d.Cell(id).Fixed = true
			rest = rest[1:]
		default:
			return p.fail("unknown cell attribute %q", rest[0])
		}
	}
	return nil
}

func (p *parser) net(f [][]byte) error {
	if err := p.needDesign(); err != nil {
		return err
	}
	if (len(f)-2)%3 != 0 {
		return p.fail("net pins must come in (cell dx dy) triples")
	}
	n := (len(f) - 2) / 3
	if n > cap(p.pins)-len(p.pins) {
		size := min(max(2*cap(p.pins), minSlab), maxSlab)
		p.pins = make([]netlist.Pin, 0, max(n, size))
	}
	lo := len(p.pins)
	for i := 2; i < len(f); i += 3 {
		var cid design.CellID = design.NoCell
		if string(f[i]) != "-" {
			ci, err := strconv.Atoi(string(f[i]))
			if err != nil || ci < 0 {
				return p.fail("bad pin cell %q", f[i])
			}
			cid = design.CellID(ci)
		}
		dx, err1 := strconv.ParseFloat(string(f[i+1]), 64)
		dy, err2 := strconv.ParseFloat(string(f[i+2]), 64)
		if err1 != nil || err2 != nil {
			return p.fail("bad pin offset")
		}
		p.pins = append(p.pins, netlist.Pin{Cell: cid, DX: dx, DY: dy})
	}
	var pins []netlist.Pin // nil for a net without pins, as append would leave it
	if n > 0 {
		pins = p.pins[lo:len(p.pins):len(p.pins)]
	}
	p.nl.AddNet(string(f[1]), pins...)
	return nil
}

// ints parses the first n of fields as decimal integers into a fixed
// array, so a directive's integers cost no allocation.
func ints(fields [][]byte, n int) ([4]int, error) {
	var out [4]int
	if len(fields) < n {
		return out, fmt.Errorf("want %d integers, have %d fields", n, len(fields))
	}
	for i := 0; i < n; i++ {
		v, err := strconv.Atoi(string(fields[i]))
		if err != nil {
			return out, fmt.Errorf("bad integer %q", fields[i])
		}
		out[i] = v
	}
	return out, nil
}
