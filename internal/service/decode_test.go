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
		Config: &ConfigJSON{Rx: intp(20), Workers: intp(2), Shards: intp(4), Seed: int64p(7)},
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
	if p.cfg.Rx != 20 || p.cfg.Workers != 2 || p.cfg.Shards != 4 || p.cfg.Seed != 7 {
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

// TestDecodeSubmitRejects tables the 4xx paths: every malformed payload
// must produce a bad-request error (never a panic), with the generic
// bad_request code.
func TestDecodeSubmitRejects(t *testing.T) {
	tiny := Limits{MaxCells: 10, MaxRows: 8, MaxNets: 5}
	valid := benchText(t, 5, 1)
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
		{"config workers over cap", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Workers: intp(64)}}), Limits{}},
		{"config shards over cap", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Shards: intp(64)}}), Limits{}},
		{"config workers over shard cap", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Workers: intp(4)}}), Limits{MaxShards: 2}},
		{"config extract_cache", strings.Replace(submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{}}),
			`"config":{}`, `"config":{"extract_cache":true}`, 1), Limits{}},
		{"config negative shards", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Shards: intp(-1)}}), Limits{}},
		{"config bad cell timeout", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{CellTimeoutMS: int64p(-5)}}), Limits{}},
		{"config bad constraints", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Constraints: strp("zoneplate:q=1")}}), Limits{}},
		{"design json empty rows", `{"design":{"name":"x","site_w":200,"site_h":2000,"masters":[],"cells":[],"rows":[]}}`, Limits{}},
		{"design json row disorder", `{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":1,"lo":0,"hi":10}],"masters":[],"cells":[]}}`, Limits{}},
		{"design json nan position", `{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],"masters":[{"name":"m","width":1,"height":1,"rail":"VSS"}],"cells":[{"name":"c","master":0,"gx":1e999,"gy":0}]}}`, Limits{}},
		{"design json bad master ref", `{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],"masters":[],"cells":[{"name":"c","master":5,"gx":1,"gy":0}]}}`, Limits{}},
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
	body := submitJSON(t, SubmitRequest{DesignText: benchText(t, 5, 1), DeadlineMS: 3_600_000})
	p, err := DecodeSubmit(strings.NewReader(body), core.DefaultConfig(), lim)
	if err != nil {
		t.Fatal(err)
	}
	if p.deadline != time.Second {
		t.Fatalf("deadline not capped: %v", p.deadline)
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

func intp(v int) *int       { return &v }
func int64p(v int64) *int64 { return &v }
func strp(v string) *string { return &v }
