// Package bookshelf reads and writes the GSRC/ISPD Bookshelf placement
// format family (.aux, .nodes, .pl, .scl, .nets), the de-facto academic
// interchange for placement benchmarks — the ISPD-2015 designs the paper
// evaluates on are distributed in a Bookshelf-derived form.
//
// The dialect implemented here is the classic fixed-row one:
//
//	.aux    RowBasedPlacement : d.nodes d.nets d.pl d.scl
//	.nodes  node names, widths, heights (DBU), "terminal" for fixed
//	.pl     node positions (DBU) and orientation, "/FIXED" markers
//	.scl    CoreRow Horizontal blocks with Coordinate/Height/
//	        SubrowOrigin/NumSites
//	.nets   NetDegree blocks with node pin offsets from the node center
//
// Dimensions in Bookshelf are physical database units; this package
// converts to and from the site-unit model of internal/design using the
// design's SiteW/SiteH. Cell heights must be whole multiples of the row
// height and widths whole multiples of the site width, which holds for
// all designs this library produces.
package bookshelf

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/netlist"
)

// FS abstracts the handful of file operations needed, so tests can run
// in-memory. Files are identified by their base name.
type FS interface {
	Create(name string) (io.WriteCloser, error)
	Open(name string) (io.ReadCloser, error)
}

// Write emits design d (and optional netlist) as a Bookshelf benchmark
// named base (base.aux, base.nodes, ...) into fs.
func Write(fs FS, base string, d *design.Design, nl *netlist.Netlist) error {
	if err := writeFile(fs, base+".aux", func(w *bufio.Writer) error {
		fmt.Fprintf(w, "RowBasedPlacement : %s.nodes %s.nets %s.pl %s.scl\n", base, base, base, base)
		return nil
	}); err != nil {
		return err
	}
	if err := writeNodes(fs, base, d); err != nil {
		return err
	}
	if err := writePl(fs, base, d); err != nil {
		return err
	}
	if err := writeScl(fs, base, d); err != nil {
		return err
	}
	return writeNets(fs, base, d, nl)
}

func writeFile(fs FS, name string, fill func(*bufio.Writer) error) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func nodeName(d *design.Design, i int) string {
	c := &d.Cells[i]
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("o%d", i)
}

func writeNodes(fs FS, base string, d *design.Design) error {
	return writeFile(fs, base+".nodes", func(w *bufio.Writer) error {
		fmt.Fprintf(w, "UCLA nodes 1.0\n\n")
		nTerm := 0
		for i := range d.Cells {
			if d.Cells[i].Fixed {
				nTerm++
			}
		}
		fmt.Fprintf(w, "NumNodes : %d\n", len(d.Cells))
		fmt.Fprintf(w, "NumTerminals : %d\n", nTerm)
		for i := range d.Cells {
			c := &d.Cells[i]
			term := ""
			if c.Fixed {
				term = " terminal"
			}
			fmt.Fprintf(w, "  %s %d %d%s\n", nodeName(d, i), int64(c.W)*d.SiteW, int64(c.H)*d.SiteH, term)
		}
		return nil
	})
}

func writePl(fs FS, base string, d *design.Design) error {
	return writeFile(fs, base+".pl", func(w *bufio.Writer) error {
		fmt.Fprintf(w, "UCLA pl 1.0\n\n")
		for i := range d.Cells {
			c := &d.Cells[i]
			var x, y float64
			if c.Placed {
				x, y = float64(c.X), float64(c.Y)
			} else {
				x, y = c.GX, c.GY
			}
			orient := "N"
			if c.Placed && c.Orient == design.FS {
				orient = "FS"
			}
			suffix := ""
			if c.Fixed {
				suffix = " /FIXED"
			}
			fmt.Fprintf(w, "%s %g %g : %s%s\n",
				nodeName(d, i), x*float64(d.SiteW), y*float64(d.SiteH), orient, suffix)
		}
		return nil
	})
}

func writeScl(fs FS, base string, d *design.Design) error {
	return writeFile(fs, base+".scl", func(w *bufio.Writer) error {
		fmt.Fprintf(w, "UCLA scl 1.0\n\n")
		fmt.Fprintf(w, "NumRows : %d\n\n", len(d.Rows))
		for i := range d.Rows {
			r := &d.Rows[i]
			fmt.Fprintf(w, "CoreRow Horizontal\n")
			fmt.Fprintf(w, "  Coordinate : %d\n", int64(r.Y)*d.SiteH)
			fmt.Fprintf(w, "  Height : %d\n", d.SiteH)
			fmt.Fprintf(w, "  Sitewidth : %d\n", d.SiteW)
			fmt.Fprintf(w, "  Sitespacing : %d\n", d.SiteW)
			fmt.Fprintf(w, "  Siteorient : 1\n")
			fmt.Fprintf(w, "  Sitesymmetry : 1\n")
			fmt.Fprintf(w, "  SubrowOrigin : %d NumSites : %d\n", int64(r.Span.Lo)*d.SiteW, r.Span.Len())
			fmt.Fprintf(w, "End\n")
		}
		return nil
	})
}

func writeNets(fs FS, base string, d *design.Design, nl *netlist.Netlist) error {
	return writeFile(fs, base+".nets", func(w *bufio.Writer) error {
		fmt.Fprintf(w, "UCLA nets 1.0\n\n")
		nNets, nPins := 0, 0
		if nl != nil {
			nNets = len(nl.Nets)
			for i := range nl.Nets {
				nPins += len(nl.Nets[i].Pins)
			}
		}
		fmt.Fprintf(w, "NumNets : %d\n", nNets)
		fmt.Fprintf(w, "NumPins : %d\n", nPins)
		if nl == nil {
			return nil
		}
		for i := range nl.Nets {
			n := &nl.Nets[i]
			name := n.Name
			if name == "" {
				name = fmt.Sprintf("n%d", i)
			}
			fmt.Fprintf(w, "NetDegree : %d %s\n", len(n.Pins), name)
			for _, p := range n.Pins {
				if p.Cell == design.NoCell {
					// Bookshelf has no pad-pin concept in .nets; encode as
					// a fixed pseudo terminal reference by absolute
					// offset from origin on a reserved name.
					fmt.Fprintf(w, "  __pad I : %g %g\n", p.DX*float64(d.SiteW), p.DY*float64(d.SiteH))
					continue
				}
				c := d.Cell(p.Cell)
				// Offsets are from the node center in Bookshelf.
				ox := (p.DX - float64(c.W)/2) * float64(d.SiteW)
				oy := (p.DY - float64(c.H)/2) * float64(d.SiteH)
				fmt.Fprintf(w, "  %s I : %g %g\n", nodeName(d, int(p.Cell)), ox, oy)
			}
		}
		return nil
	})
}

// Read parses a Bookshelf benchmark rooted at the given .aux file name.
// The site dimensions are recovered from the .scl rows (Sitewidth and
// Height must be uniform). The design and netlist Validate methods check
// the result, and sort the rows by coordinate.
func Read(fs FS, auxName string) (*design.Design, *netlist.Netlist, error) {
	files, err := readAux(fs, auxName)
	if err != nil {
		return nil, nil, err
	}
	scl, err := readScl(fs, files["scl"])
	if err != nil {
		return nil, nil, err
	}
	d := design.New(strings.TrimSuffix(filepath.Base(auxName), ".aux"), scl.siteW, scl.siteH)
	d.Rows = scl.rows

	names, err := readNodes(fs, files["nodes"], d)
	if err != nil {
		return nil, nil, err
	}
	if err := readPl(fs, files["pl"], d, names); err != nil {
		return nil, nil, err
	}
	nl, err := readNets(fs, files["nets"], d, names)
	if err != nil {
		return nil, nil, err
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

func readAux(fs FS, name string) (map[string]string, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	out := map[string]string{}
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, ":"); i >= 0 {
			for _, tok := range strings.Fields(line[i+1:]) {
				switch {
				case strings.HasSuffix(tok, ".nodes"):
					out["nodes"] = tok
				case strings.HasSuffix(tok, ".nets"):
					out["nets"] = tok
				case strings.HasSuffix(tok, ".pl"):
					out["pl"] = tok
				case strings.HasSuffix(tok, ".scl"):
					out["scl"] = tok
				}
			}
		}
	}
	for _, k := range []string{"nodes", "nets", "pl", "scl"} {
		if out[k] == "" {
			return nil, fmt.Errorf("bookshelf: aux file %s names no .%s file", name, k)
		}
	}
	return out, sc.Err()
}

type sclData struct {
	siteW, siteH int64
	rows         []design.Row
}

func readScl(fs FS, name string) (*sclData, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	out := &sclData{}
	var coord, origin, numSites int64
	var height, sitew int64
	inRow := false
	flush := func() error {
		if !inRow {
			return nil
		}
		if out.siteH == 0 {
			out.siteH = height
			out.siteW = sitew
		} else if out.siteH != height || out.siteW != sitew {
			return fmt.Errorf("bookshelf: non-uniform site geometry")
		}
		if height <= 0 || sitew <= 0 {
			return fmt.Errorf("bookshelf: row missing Height/Sitewidth")
		}
		if coord%height != 0 || origin%sitew != 0 {
			return fmt.Errorf("bookshelf: row not on site grid")
		}
		y := int(coord / height)
		lo := int(origin / sitew)
		out.rows = append(out.rows, design.Row{Y: y, Span: geom.Span{Lo: lo, Hi: lo + int(numSites)}})
		inRow = false
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(strings.ReplaceAll(line, ":", " : "))
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "CoreRow":
			inRow = true
			coord, origin, numSites, height, sitew = 0, 0, 0, 0, 0
		case "Coordinate":
			coord, err = lastInt(fields)
		case "Height":
			height, err = lastInt(fields)
		case "Sitewidth":
			sitew, err = lastInt(fields)
		case "SubrowOrigin":
			// SubrowOrigin : X NumSites : N
			for i := 0; i+2 < len(fields) && err == nil; i++ {
				switch fields[i] {
				case "SubrowOrigin":
					origin, err = strconv.ParseInt(fields[i+2], 10, 64)
				case "NumSites":
					numSites, err = strconv.ParseInt(fields[i+2], 10, 64)
				}
			}
		case "End":
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if err != nil {
			return nil, badLine(name, "number", line)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out.rows) == 0 {
		return nil, fmt.Errorf("bookshelf: no rows in %s", name)
	}
	return out, sc.Err()
}

func lastInt(fields []string) (int64, error) {
	return strconv.ParseInt(fields[len(fields)-1], 10, 64)
}

// badLine reports a malformed line of file name.
func badLine(name, what, line string) error {
	return fmt.Errorf("bookshelf: %s: bad %s in %q", name, what, line)
}

// readNodes parses cells; returns name → CellID.
func readNodes(fs FS, name string, d *design.Design) (map[string]design.CellID, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	names := map[string]design.CellID{}
	masters := map[[2]int]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "UCLA") ||
			strings.HasPrefix(line, "NumNodes") || strings.HasPrefix(line, "NumTerminals") {
			continue
		}
		ff := strings.Fields(line)
		if len(ff) < 3 {
			return nil, badLine(name, "nodes line", line)
		}
		wDBU, err1 := strconv.ParseInt(ff[1], 10, 64)
		hDBU, err2 := strconv.ParseInt(ff[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, badLine(name, "node size", line)
		}
		if wDBU%d.SiteW != 0 || hDBU%d.SiteH != 0 {
			return nil, fmt.Errorf("bookshelf: node %s size %dx%d not on the site grid", ff[0], wDBU, hDBU)
		}
		w, h := int(wDBU/d.SiteW), int(hDBU/d.SiteH)
		key := [2]int{w, h}
		mi, ok := masters[key]
		if !ok {
			// Appended rather than added: design.AddMaster panics on a
			// non-positive size, which Validate reports as an error.
			mi = len(d.Lib)
			d.Lib = append(d.Lib, design.Master{Name: fmt.Sprintf("bs_%dx%d", w, h), Width: w, Height: h})
			masters[key] = mi
		}
		id := d.AddCell(ff[0], mi, 0, 0)
		if len(ff) > 3 && ff[3] == "terminal" {
			d.Cell(id).Fixed = true
		}
		names[ff[0]] = id
	}
	return names, sc.Err()
}

func readPl(fs FS, name string, d *design.Design, names map[string]design.CellID) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "UCLA") {
			continue
		}
		ff := strings.Fields(line)
		if len(ff) < 3 {
			return badLine(name, ".pl line", line)
		}
		id, ok := names[ff[0]]
		if !ok {
			return fmt.Errorf("bookshelf: .pl references unknown node %q", ff[0])
		}
		x, err1 := strconv.ParseFloat(ff[1], 64)
		y, err2 := strconv.ParseFloat(ff[2], 64)
		if err1 != nil || err2 != nil {
			return badLine(name, "position", line)
		}
		c := d.Cell(id)
		c.GX = x / float64(d.SiteW)
		c.GY = y / float64(d.SiteH)
		// Fixed cells are placed at their (grid-aligned) coordinates.
		if c.Fixed {
			xi := int(x) / int(d.SiteW)
			yi := int(y) / int(d.SiteH)
			d.Place(id, xi, yi)
		}
	}
	return sc.Err()
}

func readNets(fs FS, name string, d *design.Design, names map[string]design.CellID) (*netlist.Netlist, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nl := netlist.New()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var pins []netlist.Pin
	netName := ""
	flush := func() {
		if netName != "" || len(pins) > 0 {
			nl.AddNet(netName, pins...)
		}
		pins = nil
		netName = ""
	}
	started := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "UCLA") ||
			strings.HasPrefix(line, "NumNets") || strings.HasPrefix(line, "NumPins") {
			continue
		}
		ff := strings.Fields(line)
		if ff[0] == "NetDegree" {
			if started {
				flush()
			}
			started = true
			if len(ff) >= 4 {
				netName = ff[3]
			} else {
				netName = fmt.Sprintf("n%d", len(nl.Nets))
			}
			continue
		}
		if !started {
			return nil, fmt.Errorf("bookshelf: pin line before NetDegree: %q", line)
		}
		// "<node> <dir> : ox oy", offsets from the node center, or
		// "<node> <dir>", which reads as offsets 0.
		var ox, oy float64
		switch {
		case len(ff) == 2:
		case len(ff) == 5 && ff[2] == ":":
			var err1, err2 error
			ox, err1 = strconv.ParseFloat(ff[3], 64)
			oy, err2 = strconv.ParseFloat(ff[4], 64)
			if err1 != nil || err2 != nil {
				return nil, badLine(name, "pin offset", line)
			}
		default:
			return nil, badLine(name, "pin line", line)
		}
		if ff[0] == "__pad" {
			pins = append(pins, netlist.Pin{
				Cell: design.NoCell,
				DX:   ox / float64(d.SiteW),
				DY:   oy / float64(d.SiteH),
			})
			continue
		}
		id, ok := names[ff[0]]
		if !ok {
			return nil, fmt.Errorf("bookshelf: .nets references unknown node %q", ff[0])
		}
		c := d.Cell(id)
		pins = append(pins, netlist.Pin{
			Cell: id,
			DX:   ox/float64(d.SiteW) + float64(c.W)/2,
			DY:   oy/float64(d.SiteH) + float64(c.H)/2,
		})
	}
	if started {
		flush()
	}
	return nl, sc.Err()
}
