package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one HELP and
// one TYPE line per family, series within a family sorted by label string,
// histograms expanded into cumulative _bucket/_sum/_count series. The
// output is a pure function of the registry state, which is what the
// golden test pins.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()

	type series struct {
		labels string // "{k=\"v\"}" or ""
		render func(io.Writer, string, string) error
	}
	type family struct {
		base, help, typ string
		series          []series
	}
	fams := make(map[string]*family)
	add := func(m metricMeta, typ string, render func(io.Writer, string, string) error) {
		f := fams[m.base]
		if f == nil {
			f = &family{base: m.base, help: m.help, typ: typ}
			fams[m.base] = f
		}
		f.series = append(f.series, series{labels: strings.TrimPrefix(m.name, m.base), render: render})
	}

	counterLine := func(v int64) func(io.Writer, string, string) error {
		return func(w io.Writer, base, labels string) error {
			_, err := fmt.Fprintf(w, "%s%s %d\n", base, labels, v)
			return err
		}
	}
	for _, c := range r.counters {
		add(c.metricMeta, "counter", counterLine(c.Value()))
	}
	for _, g := range r.gauges {
		add(g.metricMeta, "gauge", counterLine(g.Value()))
	}
	for _, h := range r.hists {
		h := h
		add(h.metricMeta, "histogram", func(w io.Writer, base, labels string) error {
			var cum int64
			for i, b := range h.bounds {
				cum += h.buckets[i].Load()
				if err := histLine(w, base, labels, formatFloat(b), cum); err != nil {
					return err
				}
			}
			cum += h.buckets[len(h.bounds)].Load()
			if err := histLine(w, base, labels, "+Inf", cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(h.Sum())); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
			return err
		})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.base, f.help, f.base, f.typ); err != nil {
			return err
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			if err := s.render(w, f.base, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// histLine writes one cumulative bucket series, merging the le label into
// any labels already on the series name.
func histLine(w io.Writer, base, labels, le string, cum int64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", base, le, cum)
	} else {
		// labels is "{...}"; splice le in before the closing brace.
		_, err = fmt.Fprintf(w, "%s_bucket%s,le=%q} %d\n", base, labels[:len(labels)-1], le, cum)
	}
	return err
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
