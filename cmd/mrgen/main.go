// Command mrgen generates a synthetic ISPD-2015-shaped benchmark (design +
// clustered netlist), optionally runs the built-in quadratic global placer
// to fill in input positions, and writes the result in the mrlegal text
// format.
//
// Usage:
//
//	mrgen -name fft_1 -cells 3000 -density 0.84 -gp -o fft_1.mr
//	mrgen -table1 -scale 200 -gp -dir bench/        # the whole roster
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mrlegal/internal/bengen"
	"mrlegal/internal/bookshelf"
	"mrlegal/internal/gp"
	"mrlegal/internal/iodesign"
)

func main() {
	var (
		name      = flag.String("name", "synthetic", "benchmark name")
		cells     = flag.Int("cells", 5000, "number of movable cells")
		density   = flag.Float64("density", 0.5, "target design density")
		dblFrac   = flag.Float64("double", 0.10, "fraction of double-height cells")
		blockages = flag.Float64("blockages", 0, "die fraction reserved for blockages")
		seed      = flag.Int64("seed", 1, "generator seed")
		runGP     = flag.Bool("gp", true, "run the quadratic global placer to set input positions")
		out       = flag.String("o", "-", "output file ('-' = stdout); with -format bookshelf, the base path of the .aux family")
		format    = flag.String("format", "mr", "output format: mr (text) | bookshelf (.aux family)")
		table1    = flag.Bool("table1", false, "generate the full Table-1 roster instead of one benchmark")
		scale     = flag.Int("scale", 200, "cell-count downscale factor for -table1")
		dir       = flag.String("dir", ".", "output directory for -table1")
	)
	flag.Parse()

	emit := func(spec bengen.Spec, path string) error {
		b := bengen.Generate(spec)
		if *runGP {
			st := gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
			fmt.Fprintf(os.Stderr, "%s: %d cells, density %.2f, GP HPWL %.4g m (%d iters)\n",
				spec.Name, len(b.D.Cells), b.D.Density(), st.HPWL*1e-9, st.Iters)
		}
		if *format == "bookshelf" {
			if path == "-" {
				return fmt.Errorf("bookshelf output needs a file base path, not stdout")
			}
			dir, base := filepath.Split(path)
			if dir == "" {
				dir = "."
			}
			base = strings.TrimSuffix(base, ".aux")
			base = strings.TrimSuffix(base, ".mr")
			return bookshelf.Write(bookshelf.DirFS(dir), base, b.D, b.NL)
		}
		if path == "-" {
			return iodesign.Write(os.Stdout, b.D, b.NL)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := iodesign.Write(f, b.D, b.NL); err != nil {
			f.Close()
			return err
		}
		// A failed close can leave a short file behind.
		return f.Close()
	}

	if *table1 {
		for _, spec := range bengen.Table1Specs(*scale) {
			path := filepath.Join(*dir, spec.Name+".mr")
			if err := emit(spec, path); err != nil {
				fmt.Fprintf(os.Stderr, "mrgen: %s: %v\n", spec.Name, err)
				os.Exit(1)
			}
		}
		return
	}
	spec := bengen.Spec{
		Name:         *name,
		NumCells:     *cells,
		Density:      *density,
		DoubleFrac:   *dblFrac,
		BlockageFrac: *blockages,
		Seed:         *seed,
	}
	if err := emit(spec, *out); err != nil {
		fmt.Fprintf(os.Stderr, "mrgen: %v\n", err)
		os.Exit(1)
	}
}
