package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mrlegal/internal/bengen"
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

// withConfig is a submission of design whose config object holds the
// raw JSON members fields, which ConfigJSON need not declare.
func withConfig(t testing.TB, design, fields string) string {
	t.Helper()
	return strings.Replace(submitJSON(t, SubmitRequest{DesignText: design, Config: &ConfigJSON{}}),
		`"config":{}`, `"config":{`+fields+`}`, 1)
}

// The two design sources the server no longer takes, each a valid
// design: a body that carries either answers bad_request as an unknown
// field.
const (
	designJSONBody = `{"design":{"name":"j","site_w":200,"site_h":2000,` +
		`"rows":[{"y":0,"lo":0,"hi":50}],"masters":[{"name":"INV","width":2,"height":1,"rail":"VSS"}],` +
		`"cells":[{"name":"u0","master":0,"gx":3.5,"gy":0.2}]}}`
	bookshelfBody = `{"bookshelf":{"aux":"b.aux","files":{` +
		`"b.aux":"RowBasedPlacement : b.nodes b.nets b.pl b.scl\n",` +
		`"b.nodes":"UCLA nodes 1.0\n a 200 2000\n","b.pl":"UCLA pl 1.0\na 0 0 : N\n",` +
		`"b.nets":"UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n",` +
		`"b.scl":"UCLA scl 1.0\nCoreRow Horizontal\n Coordinate : 0\n Height : 2000\n Sitewidth : 200\n SubrowOrigin : 0 NumSites : 10\nEnd\n"}}}`
)

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

// TestDecodeSubmitDesignJSON: a design written as the structured JSON
// `design` is refused as an unknown field, and the same design — two
// rows, a double-height master, a fixed placed cell and a net with a
// pad — is admitted intact as design_text, config overrides included.
func TestDecodeSubmitDesignJSON(t *testing.T) {
	const jsonBody = `{"design":{"name":"j","site_w":200,"site_h":2000,` +
		`"rows":[{"y":0,"lo":0,"hi":50},{"y":1,"lo":0,"hi":50}],` +
		`"masters":[{"name":"INV","width":2,"height":1,"rail":"VSS"},{"name":"DFF","width":4,"height":2,"rail":"VSS"}],` +
		`"cells":[{"name":"u0","master":0,"gx":3.5,"gy":0.2},{"name":"u1","master":1,"gx":8,"gy":0.9},` +
		`{"name":"fx","master":0,"gx":20,"gy":1,"x":20,"y":1,"placed":true,"fixed":true}],` +
		`"nets":[{"name":"n0","pins":[{"cell":0,"dx":1,"dy":0.5},{"cell":1,"dx":0,"dy":0},{"cell":-1,"dx":40,"dy":2}]}]},` +
		`"config":{"rx":20,"seed":7}}`
	_, err := DecodeSubmit(strings.NewReader(jsonBody), core.DefaultConfig(), Limits{})
	if code := ErrorCode(err); code != CodeBadRequest || !strings.Contains(err.Error(), `unknown field "design"`) {
		t.Fatalf("JSON design: got %v (code %q), want a bad request for the unknown field", err, code)
	}
	text := "design j 200 2000\nrow 0 0 50\nrow 1 0 50\nmaster INV 2 1 VSS\nmaster DFF 4 2 VSS\n" +
		"cell u0 0 3.5 0.2\ncell u1 1 8 0.9\ncell fx 0 20 1 @ 20 1 fixed\n" +
		"net n0 0 1 0.5 1 0 0 - 40 2\n"
	req := SubmitRequest{DesignText: text, Config: &ConfigJSON{Rx: intp(20), Seed: int64p(7)}}
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

// TestDecodeSubmitRejects tables the 4xx paths: every malformed payload
// must produce a bad-request error (never a panic), with the generic
// bad_request code.
func TestDecodeSubmitRejects(t *testing.T) {
	tiny := Limits{MaxCells: 10, MaxRows: 8, MaxNets: 5}
	valid := benchText(t, 5, 1)
	twoCells := "design d 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\ncell a 0 1 0\ncell b 0 5 0\n"
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
		// design_text is the one design source: the others are unknown
		// fields, however valid the design they carry.
		{"valid design json", designJSONBody, Limits{}},
		{"valid bookshelf", bookshelfBody, Limits{}},
		{"two design sources", strings.Replace(submitJSON(t, SubmitRequest{DesignText: valid}), "{", `{"bookshelf":{"aux":"x.aux"},`, 1), Limits{}},
		{"trailing document", `{"design_text":"design d 200 2000\nrow 0 0 10"} {"x":1}`, Limits{}},
		{"bad design text", submitJSON(t, SubmitRequest{DesignText: "design d 0 0"}), Limits{}},
		{"zero-size master", submitJSON(t, SubmitRequest{DesignText: "design d 200 2000\nrow 0 0 10\nmaster m 0 1 VSS"}), Limits{}},
		{"negative deadline", submitJSON(t, SubmitRequest{DesignText: valid, DeadlineMS: -1}), Limits{}},
		{"too many cells", submitJSON(t, SubmitRequest{DesignText: benchText(t, 40, 2)}), tiny},
		{"config out of range", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Rx: intp(-3)}}), Limits{}},
		// workers and shards are not config fields: any value is rejected.
		{"config workers over cap", withConfig(t, valid, `"workers":64`), Limits{}},
		{"config shards over cap", withConfig(t, valid, `"shards":64`), Limits{}},
		{"config workers over shard cap", withConfig(t, valid, `"workers":4`), Limits{}},
		{"config extract_cache", withConfig(t, valid, `"extract_cache":true`), Limits{}},
		{"config negative shards", withConfig(t, valid, `"shards":-1`), Limits{}},
		// cell_timeout_ms and exhaustive_search are not config fields
		// either, and a zero window fails core.Config.Validate.
		{"config bad cell timeout", withConfig(t, valid, `"cell_timeout_ms":5`), Limits{}},
		{"config exhaustive_search", withConfig(t, valid, `"exhaustive_search":true`), Limits{}},
		{"config zero rx", withConfig(t, valid, `"rx":0`), Limits{}},
		{"config bad constraints", submitJSON(t, SubmitRequest{DesignText: valid, Config: &ConfigJSON{Constraints: strp("zoneplate:q=1")}}), Limits{}},

		// iodesign.Read rejects these: it checks its design with
		// Design.Validate and Netlist.Validate.
		{"design_text nan pin offset", submitJSON(t, SubmitRequest{DesignText: twoCells + "net n 0 NaN 0 1 0 0\n"}), Limits{}},
		{"design_text inf pad", submitJSON(t, SubmitRequest{DesignText: twoCells + "net n 0 0 0 - +Inf 0\n"}), Limits{}},
		{"design_text fixed unplaced", submitJSON(t, SubmitRequest{DesignText: twoCells + "cell f 0 9 0 fixed\n"}), Limits{}},
		{"design_text net on a dropped cell", submitJSON(t, SubmitRequest{DesignText: twoCells + "net n 0 0 0 1 0 0\n" +
			"design e 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\ncell z 0 1 0\n"}), Limits{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeSubmit(strings.NewReader(c.body), core.DefaultConfig(), c.lim)
			if err == nil {
				t.Fatal("accepted")
			}
			if ErrorCode(err) != CodeBadRequest {
				t.Fatalf("not a bad request: %v", err)
			}
		})
	}
}

// TestDecodeSubmitRejectsInvalidDesigns: a design that Design.Validate
// rejects answers bad_request, not a recovered panic. An inline
// Bookshelf design answers bad_request for its unknown field before
// anything reads it, however malformed it is.
func TestDecodeSubmitRejectsInvalidDesigns(t *testing.T) {
	const unknownBookshelf = `unknown field "bookshelf"`
	cases := []struct{ name, body, want string }{
		{"design_text span past 2^30", submitJSON(t, SubmitRequest{DesignText: "design d 200 2000\n" +
			"row 0 -9223372036854775800 9223372036854775800\nmaster m 1 1 VSS\ncell a 0 1 0\n"}), ""},
		{"bookshelf zero-width node", strings.Replace(bookshelfBody, ` a 200 2000`, ` a 0 2000`, 1), unknownBookshelf},
		{"bookshelf two rows at one coordinate", strings.Replace(bookshelfBody, `End\n"`,
			`End\nCoreRow Horizontal\n Coordinate : 0\n Height : 2000\n Sitewidth : 200\n SubrowOrigin : 0 NumSites : 10\nEnd\n"`, 1),
			unknownBookshelf},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.body == bookshelfBody {
				t.Fatal("the edit did not apply")
			}
			_, err := DecodeSubmit(strings.NewReader(c.body), core.DefaultConfig(), Limits{})
			if code := ErrorCode(err); code != CodeBadRequest || strings.Contains(err.Error(), "invalid design: ") ||
				!strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v (code %q), want a bad request that is not a recovered panic and names %q", err, code, c.want)
			}
		})
	}
}

// TestDecodeSubmitNetLimit: Limits.MaxNets gates a submission — the
// 3-net design is rejected at MaxNets 2 and admitted at MaxNets 3.
func TestDecodeSubmitNetLimit(t *testing.T) {
	text := "design d 200 2000\nrow 0 0 20\nmaster m 1 1 VSS\n" +
		"cell a 0 1 0\ncell b 0 5 0\n" +
		"net n0 0 0 0 1 0 0\nnet n1 0 0 0 - 9 0\nnet n2 1 0 0 - 0 0\n"
	t.Run("design_text", func(t *testing.T) {
		body := submitJSON(t, SubmitRequest{DesignText: text})
		_, err := DecodeSubmit(strings.NewReader(body), core.DefaultConfig(), Limits{MaxNets: 2})
		if code := ErrorCode(err); code != CodeBadRequest || !strings.Contains(err.Error(), "3 nets exceeds the limit of 2") {
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
