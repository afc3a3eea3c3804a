package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/bookshelf"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/gp"
	"mrlegal/internal/iodesign"
)

// benchText renders a small generated benchmark in the mrlegal text
// format — a realistic design_text submission.
func benchText(t testing.TB, cells int, seed int64) string {
	t.Helper()
	b := bengen.Generate(bengen.Spec{Name: "svc", NumCells: cells, Density: 0.5, Seed: seed})
	var buf bytes.Buffer
	if err := iodesign.Write(&buf, b.D, b.NL); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// submitJSON marshals a SubmitRequest for decoding.
func submitJSON(t testing.TB, req SubmitRequest) string {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestDecodeSubmitDesignText(t *testing.T) {
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 40, 3), DeadlineMS: 2000})
	p, err := DecodeSubmit(strings.NewReader(body), core.DefaultConfig(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.d.Cells) != 40 {
		t.Fatalf("cells: %d", len(p.d.Cells))
	}
	if p.deadline != 2*time.Second {
		t.Fatalf("deadline: %v", p.deadline)
	}
}

func TestDecodeSubmitDesignJSON(t *testing.T) {
	req := SubmitRequest{
		Design: &DesignJSON{
			Name: "j", SiteW: 200, SiteH: 2000,
			Rows: []RowJSON{{Y: 0, Lo: 0, Hi: 50}, {Y: 1, Lo: 0, Hi: 50}},
			Masters: []MasterJSON{
				{Name: "INV", Width: 2, Height: 1, Rail: "VSS"},
				{Name: "DFF", Width: 4, Height: 2, Rail: "VSS"},
			},
			Cells: []CellJSON{
				{Name: "u0", Master: 0, GX: 3.5, GY: 0.2},
				{Name: "u1", Master: 1, GX: 8.0, GY: 0.9},
				{Name: "fx", Master: 0, GX: 20, GY: 1, X: 20, Y: 1, Placed: true, Fixed: true},
			},
			Nets: []NetJSON{{Name: "n0", Pins: []PinJSON{
				{Cell: 0, DX: 1, DY: 0.5}, {Cell: 1, DX: 0, DY: 0}, {Cell: -1, DX: 40, DY: 2},
			}}},
		},
		Config: &ConfigJSON{Rx: intp(20), Seed: int64p(7)},
	}
	p, err := DecodeSubmit(strings.NewReader(submitJSON(t, req)), core.DefaultConfig(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.d.Cells) != 3 || len(p.d.Rows) != 2 || len(p.nl.Nets) != 1 {
		t.Fatalf("structure: %d cells %d rows %d nets", len(p.d.Cells), len(p.d.Rows), len(p.nl.Nets))
	}
	if !p.d.Cells[2].Fixed || !p.d.Cells[2].Placed {
		t.Fatal("fixed cell lost")
	}
	if p.cfg.Rx != 20 || p.cfg.Seed != 7 {
		t.Fatalf("config overrides lost: %+v", p.cfg)
	}
	// The legalizer must accept what the decoder admits.
	if _, err := core.NewLegalizer(p.d, p.cfg); err != nil {
		t.Fatalf("NewLegalizer rejected an admitted design: %v", err)
	}
}

func TestDecodeSubmitBookshelf(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "bs", NumCells: 30, Density: 0.5, Seed: 5})
	fs := bookshelf.NewMemFS()
	if err := bookshelf.Write(fs, "bs", b.D, b.NL); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for name, buf := range fs.Files {
		files[name] = buf.String()
	}
	req := SubmitRequest{Bookshelf: &BookshelfJSON{Aux: "bs.aux", Files: files}}
	p, err := DecodeSubmit(strings.NewReader(submitJSON(t, req)), core.DefaultConfig(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.d.Cells) != 30 {
		t.Fatalf("cells: %d", len(p.d.Cells))
	}
}

// bookshelfBody converts a text design to a Bookshelf submission, with
// edit applied to each file's content first when it is not nil.
func bookshelfBody(t testing.TB, text string, edit func(name, content string) string) string {
	t.Helper()
	d, nl, err := iodesign.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fs := bookshelf.NewMemFS()
	if err := bookshelf.Write(fs, "bs", d, nl); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for name, buf := range fs.Files {
		files[name] = buf.String()
		if edit != nil {
			files[name] = edit(name, files[name])
		}
	}
	return submitJSON(t, SubmitRequest{Bookshelf: &BookshelfJSON{Aux: "bs.aux", Files: files}})
}

// TestDecodeSubmitRejects tables the 4xx paths: every malformed payload
// must produce a bad-request error (never a panic), with the generic
// bad_request code.
func TestDecodeSubmitRejects(t *testing.T) {
	tiny := Limits{MaxCells: 10, MaxRows: 8, MaxNets: 5}
	valid := benchText(t, 5, 1)
	twoCells := "design d 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\ncell a 0 1 0\ncell b 0 5 0\n"
	// dropLine removes the .pl line of node f, so the terminal has no
	// position.
	dropLine := func(name, content string) string {
		if !strings.HasSuffix(name, ".pl") {
			return content
		}
		var keep []string
		for _, l := range strings.Split(content, "\n") {
			if !strings.HasPrefix(l, "f ") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	// withConfig is a valid submission whose config object holds fields.
	withConfig := func(fields string) string {
		return strings.Replace(submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{}}),
			`"config":{}`, `"config":{`+fields+`}`, 1)
	}
	cases := []struct {
		name string
		body string
		lim  Limits
	}{
		{"empty", "", Limits{}},
		{"not json", "design d 200 2000", Limits{}},
		{"wrong type", `[1,2,3]`, Limits{}},
		{"unknown field", `{"frobnicate": 1}`, Limits{}},
		{"no design source", `{}`, Limits{}},
		{"two design sources", submitJSON(t, SubmitRequest{DesignText: valid, Bookshelf: &BookshelfJSON{Aux: "x.aux"}}), Limits{}},
		{"trailing document", `{"design_text":"design d 200 2000\nrow 0 0 10"} {"x":1}`, Limits{}},
		{"bad design text", submitJSON(t, SubmitRequest{DesignText: "design d 0 0"}), Limits{}},
		{"zero-size master", submitJSON(t, SubmitRequest{DesignText: "design d 200 2000\nrow 0 0 10\nmaster m 0 1 VSS"}), Limits{}},
		{"negative deadline", submitJSON(t, SubmitRequest{DesignText: valid, DeadlineMS: -1}), Limits{}},
		{"too many cells", submitJSON(t, SubmitRequest{DesignText: benchText(t, 40, 2)}), tiny},
		{"bookshelf no aux", submitJSON(t, SubmitRequest{Bookshelf: &BookshelfJSON{}}), Limits{}},
		{"bookshelf missing file", submitJSON(t, SubmitRequest{Bookshelf: &BookshelfJSON{Aux: "q.aux"}}), Limits{}},
		{"config out of range", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Rx: intp(-3)}}), Limits{}},
		// workers and shards are not config fields: any value is rejected.
		{"config workers over cap", withConfig(`"workers":64`), Limits{}},
		{"config shards over cap", withConfig(`"shards":64`), Limits{}},
		{"config workers over shard cap", withConfig(`"workers":4`), Limits{}},
		{"config extract_cache", withConfig(`"extract_cache":true`), Limits{}},
		{"config negative shards", withConfig(`"shards":-1`), Limits{}},
		{"config bad cell timeout", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{CellTimeoutMS: int64p(-5)}}), Limits{}},
		// Past MaxDeadline by far: a timeout converted to time.Duration
		// before the comparison wraps negative or tiny instead.
		{"config cell timeout wraps negative", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{CellTimeoutMS: int64p(9_223_372_036_855)}}), Limits{}},
		{"config cell timeout wraps small", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{CellTimeoutMS: int64p(18_446_744_073_710)}}), Limits{}},
		{"config bad constraints", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Constraints: strp("zoneplate:q=1")}}), Limits{}},
		{"design json empty rows", `{"design":{"name":"x","site_w":200,"site_h":2000,"masters":[],"cells":[],"rows":[]}}`, Limits{}},
		{"design json row disorder", `{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":1,"lo":0,"hi":10}],"masters":[],"cells":[]}}`, Limits{}},
		{"design json nan position", `{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],"masters":[{"name":"m","width":1,"height":1,"rail":"VSS"}],"cells":[{"name":"c","master":0,"gx":1e999,"gy":0}]}}`, Limits{}},
		{"design json bad master ref", `{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],"masters":[],"cells":[{"name":"c","master":5,"gx":1,"gy":0}]}}`, Limits{}},

		// Every reader rejects these: each checks its design with
		// Design.Validate and Netlist.Validate.
		{"design_text nan pin offset", submitJSON(t, SubmitRequest{DesignText: twoCells + "net n 0 NaN 0 1 0 0\n"}), Limits{}},
		{"design_text inf pad", submitJSON(t, SubmitRequest{DesignText: twoCells + "net n 0 0 0 - +Inf 0\n"}), Limits{}},
		{"design_text fixed unplaced", submitJSON(t, SubmitRequest{DesignText: twoCells + "cell f 0 9 0 fixed\n"}), Limits{}},
		{"design_text net on a dropped cell", submitJSON(t, SubmitRequest{DesignText: twoCells + "net n 0 0 0 1 0 0\n" +
			"design e 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\ncell z 0 1 0\n"}), Limits{}},
		{"bookshelf nan pin offset", bookshelfBody(t, twoCells+"net n 0 0 0 1 0 0\n", func(name, content string) string {
			return strings.Replace(content, "a I : -100 ", "a I : NaN ", 1)
		}), Limits{}},
		{"bookshelf fixed unplaced", bookshelfBody(t, twoCells+"cell f 0 9 0 @ 9 0 fixed\n", dropLine), Limits{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeSubmit(strings.NewReader(c.body), core.DefaultConfig(), c.lim)
			if err == nil {
				t.Fatal("accepted")
			}
			if _, ok := IsBadRequest(err); !ok {
				t.Fatalf("not a bad request: %v", err)
			}
		})
	}
}

// TestDecodeSubmitRejectsInvalidDesigns: the designs that Design.Validate
// and Netlist.Validate reject answer bad_request from every source that
// can carry them, not only from some.
func TestDecodeSubmitRejectsInvalidDesigns(t *testing.T) {
	const twoRows = "design d 200 2000\nrow 0 0 20\nrow 1 0 20\nmaster m 1 1 VSS\ncell a 0 1 0\ncell b 0 5 0\n"
	replace := func(suffix, old, new string) func(name, content string) string {
		return func(name, content string) string {
			if strings.HasSuffix(name, suffix) {
				return strings.Replace(content, old, new, 1)
			}
			return content
		}
	}
	const jsonHead = `{"design":{"name":"x","site_w":200,"site_h":2000,"masters":[{"name":"m","width":1,"height":1}],`
	cases := []struct{ name, body string }{
		{"design_text span past 2^30", submitJSON(t, SubmitRequest{DesignText: "design d 200 2000\n" +
			"row 0 -9223372036854775800 9223372036854775800\nmaster m 1 1 VSS\ncell a 0 1 0\n"})},
		{"design span past 2^30", jsonHead + `"rows":[{"y":0,"lo":0,"hi":1073741825}],"cells":[]}}`},
		{"design pin on a missing cell", jsonHead + `"rows":[{"y":0,"lo":0,"hi":20}],"cells":[],"nets":[{"name":"n","pins":[{"cell":3}]}]}}`},
		{"design two rows at one index", jsonHead + `"rows":[{"y":0,"lo":0,"hi":20},{"y":0,"lo":0,"hi":20}],"cells":[]}}`},
		{"design fixed cell not placed", jsonHead + `"rows":[{"y":0,"lo":0,"hi":20}],"cells":[{"name":"f","master":0,"gx":1,"gy":0,"fixed":true}]}}`},
		{"design master of width 0", `{"design":{"name":"x","site_w":200,"site_h":2000,"masters":[{"name":"m","width":0,"height":1}],` +
			`"rows":[{"y":0,"lo":0,"hi":20}],"cells":[]}}`},
		{"bookshelf span past 2^30", bookshelfBody(t, twoRows, replace(".scl", "NumSites : 20", "NumSites : 2000000000"))},
		{"bookshelf zero-width node", bookshelfBody(t, twoRows, replace(".nodes", " a 200 ", " a 0 "))},
		{"bookshelf two rows at one coordinate", bookshelfBody(t, twoRows, replace(".scl", "Coordinate : 2000", "Coordinate : 0"))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeSubmit(strings.NewReader(c.body), core.DefaultConfig(), Limits{})
			if code, ok := IsBadRequest(err); !ok || strings.Contains(err.Error(), "invalid design: ") {
				t.Fatalf("error %v (code %q), want a bad request that is not a recovered panic", err, code)
			}
		})
	}
}

// TestDecodeSubmitNetLimit: Limits.MaxNets gates every design source,
// not only the JSON design — the same 3-net design is rejected at
// MaxNets 2 and admitted at MaxNets 3 whichever way it is submitted.
func TestDecodeSubmitNetLimit(t *testing.T) {
	text := "design d 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\n" +
		"cell a 0 1 0\ncell b 0 5 0\n" +
		"net n0 0 0 0 1 0 0\nnet n1 0 0 0 - 9 0\nnet n2 1 0 0 - 0 0\n"
	d, nl, err := iodesign.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fs := bookshelf.NewMemFS()
	if err := bookshelf.Write(fs, "bs", d, nl); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for name, buf := range fs.Files {
		files[name] = buf.String()
	}
	dj := &DesignJSON{
		Name: "d", SiteW: 200, SiteH: 2000,
		Rows:    []RowJSON{{Y: 0, Lo: 0, Hi: 20}},
		Masters: []MasterJSON{{Name: "m", Width: 1, Height: 1, Rail: "VSS"}},
		Cells:   []CellJSON{{Name: "a", Master: 0, GX: 1}, {Name: "b", Master: 0, GX: 5}},
		Nets: []NetJSON{
			{Name: "n0", Pins: []PinJSON{{Cell: 0}, {Cell: 1}}},
			{Name: "n1", Pins: []PinJSON{{Cell: 0}, {Cell: -1, DX: 9}}},
			{Name: "n2", Pins: []PinJSON{{Cell: 1}, {Cell: -1}}},
		},
	}
	for _, src := range []struct {
		name string
		req  SubmitRequest
	}{
		{"design_text", SubmitRequest{DesignText: text}},
		{"design", SubmitRequest{Design: dj}},
		{"bookshelf", SubmitRequest{Bookshelf: &BookshelfJSON{Aux: "bs.aux", Files: files}}},
	} {
		t.Run(src.name, func(t *testing.T) {
			body := submitJSON(t, src.req)
			_, err := DecodeSubmit(strings.NewReader(body), core.DefaultConfig(), Limits{MaxNets: 2})
			if code, ok := IsBadRequest(err); !ok || !strings.Contains(err.Error(), "3 nets exceeds the limit of 2") {
				t.Fatalf("MaxNets 2: got %v (code %q), want a 3-nets bad request", err, code)
			}
			p, err := DecodeSubmit(strings.NewReader(body), core.DefaultConfig(), Limits{MaxNets: 3})
			if err != nil {
				t.Fatalf("MaxNets 3: %v", err)
			}
			if len(p.nl.Nets) != 3 {
				t.Fatalf("admitted %d nets, want 3", len(p.nl.Nets))
			}
		})
	}
}

// TestDecodeSubmitDeadlineCapped checks a client deadline beyond
// Limits.MaxDeadline is clamped, not rejected.
func TestDecodeSubmitDeadlineCapped(t *testing.T) {
	lim := Limits{MaxDeadline: time.Second}
	text := benchText(t, 5, 1)
	// The last two overflow time.Duration when converted before the
	// clamp: one wraps negative (no deadline at all), one to 448µs.
	for _, ms := range []int64{3_600_000, 9_223_372_036_855, 18_446_744_073_710} {
		body := submitJSON(t, SubmitRequest{DesignText: text, DeadlineMS: ms})
		p, err := DecodeSubmit(strings.NewReader(body), core.DefaultConfig(), lim)
		if err != nil {
			t.Fatal(err)
		}
		if p.deadline != time.Second {
			t.Errorf("deadline_ms %d: deadline %v, want it capped at 1s", ms, p.deadline)
		}
	}
}

// TestDecodeSubmitConstraints checks the per-job constraint override:
// a spec string replaces the server's base set, and an explicit ""
// clears it (absence keeps the base).
func TestDecodeSubmitConstraints(t *testing.T) {
	base := core.DefaultConfig()
	baseSet, err := constraint.Parse("spacing:gap=1")
	if err != nil {
		t.Fatal(err)
	}
	base.Constraints = baseSet
	valid := benchText(t, 5, 1)

	p, err := DecodeSubmit(strings.NewReader(submitJSON(t, SubmitRequest{
		DesignText: valid,
		Config:     &ConfigJSON{Constraints: strp("fence:x0=0,y0=0,x1=10,y1=2;tpl:sep=1")},
	})), base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := constraint.Parse("fence:x0=0,y0=0,x1=10,y1=2;tpl:sep=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Constraints.Signature() != want.Signature() {
		t.Fatalf("constraints override lost: %q", p.cfg.Constraints.Signature())
	}

	p, err = DecodeSubmit(strings.NewReader(submitJSON(t, SubmitRequest{
		DesignText: valid,
		Config:     &ConfigJSON{Constraints: strp("")},
	})), base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.cfg.Constraints.Empty() {
		t.Fatalf("explicit empty spec did not clear the base set: %q", p.cfg.Constraints.Signature())
	}

	p, err = DecodeSubmit(strings.NewReader(submitJSON(t, SubmitRequest{DesignText: valid})), base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Constraints.Signature() != baseSet.Signature() {
		t.Fatalf("absent field replaced the base set: %q", p.cfg.Constraints.Signature())
	}
}

// BenchmarkDecodeSubmit decodes a design_text submission the size of the
// Table-1 suite's median job, matrix_mult_1 at the benchmark's scale 50
// (3,106 cells), globally placed and with its netlist, as perfbench's
// jobs_table1 submits it.
func BenchmarkDecodeSubmit(b *testing.B) {
	var spec bengen.Spec
	for _, s := range bengen.Table1Specs(50) {
		if s.Name == "matrix_mult_1" {
			spec = s
		}
	}
	bench := bengen.Generate(spec)
	gp.Place(bench.D, bench.NL, gp.Config{Seed: spec.Seed})
	var text bytes.Buffer
	if err := iodesign.Write(&text, bench.D, bench.NL); err != nil {
		b.Fatal(err)
	}
	body := []byte(submitJSON(b, SubmitRequest{DesignText: text.String()}))
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSubmit(bytes.NewReader(body), core.DefaultConfig(), Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

func intp(v int) *int       { return &v }
func int64p(v int64) *int64 { return &v }
func strp(v string) *string { return &v }
