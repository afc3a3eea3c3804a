package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the full text exposition for a registry
// with deterministic values: family sort order, one HELP/TYPE pair per
// family, label-sorted series, cumulative histogram buckets with the le
// label spliced into pre-existing labels, and float formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(7)
	r.Counter("aa_total", "first family").Add(3)
	r.Gauge("mid_gauge", "a gauge").Set(-4)

	h := r.Histogram("lat_seconds", "a histogram", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(3)

	// Two series of one family, created out of label order; exposition
	// must sort them and splice le into the existing label set.
	pe := r.Histogram(WithLabels("phase_seconds", "phase", "extract"), "phase time", []float64{1})
	pr := r.Histogram(WithLabels("phase_seconds", "phase", "realize"), "phase time", []float64{1})
	pr.Observe(0.5)
	pe.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_total first family
# TYPE aa_total counter
aa_total 3
# HELP lat_seconds a histogram
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="2"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 4.25
lat_seconds_count 3
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge -4
# HELP phase_seconds phase time
# TYPE phase_seconds histogram
phase_seconds_bucket{phase="extract",le="1"} 0
phase_seconds_bucket{phase="extract",le="+Inf"} 1
phase_seconds_sum{phase="extract"} 2
phase_seconds_count{phase="extract"} 1
phase_seconds_bucket{phase="realize",le="1"} 1
phase_seconds_bucket{phase="realize",le="+Inf"} 1
phase_seconds_sum{phase="realize"} 0.5
phase_seconds_count{phase="realize"} 1
# HELP zz_total last family
# TYPE zz_total counter
zz_total 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusParses runs a minimal line-shape validator over a
// populated exposition: every non-comment line must be NAME{...}? VALUE
// and every family must be introduced by HELP then TYPE.
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Inc()
	r.Histogram("h_seconds", "h", nil).Observe(0.001)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	sawHelp := map[string]bool{}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# HELP ") {
			sawHelp[strings.Fields(ln)[2]] = true
			continue
		}
		if strings.HasPrefix(ln, "# TYPE ") {
			name := strings.Fields(ln)[2]
			if !sawHelp[name] {
				t.Errorf("TYPE before HELP for %s", name)
			}
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		if sp <= 0 {
			t.Errorf("malformed sample line %q", ln)
			continue
		}
		name := ln[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unbalanced labels in %q", ln)
			}
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !sawHelp[base] && !sawHelp[name] {
			t.Errorf("sample %q has no HELP", ln)
		}
	}
}

// TestFormatFloat pins the special-value spellings.
func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.5:  "0.5",
		1:    "1",
		1e-6: "1e-06",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
