package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mrlegal/internal/core"
)

// FuzzDecodeSubmit asserts the job-submission decoder's robustness
// contract (mirroring bookshelf.FuzzRead): arbitrary — corrupt,
// truncated, hostile — payload bytes must produce an error or a valid
// payload, never a panic or a hang. The decoder is the only thing
// between the network and the engine, so this is the service's first
// line of defense. It is also differential: decodeSubmitBody, which takes
// design_text out of encoding/json's hands, must give what
// referenceDecodeSubmitBody gives, the same payload or the same error
// text and code (samePayload).
func FuzzDecodeSubmit(f *testing.F) {
	valid := benchText(f, 40, 3)

	// A well-formed submission with deadline and config fields, then a
	// JSON design and a Bookshelf benchmark, the design sources the server
	// no longer takes: both sides must reject those two.
	f.Add(submitJSON(f, SubmitRequest{DesignText: valid, DeadlineMS: 1000}))
	f.Add(submitJSON(f, SubmitRequest{
		DesignText: valid,
		Config:     &ConfigJSON{Rx: intp(20), Ry: intp(3), Seed: int64p(7)},
	}))
	f.Add(`{"design":{"name":"j","site_w":200,"site_h":2000,` +
		`"rows":[{"y":0,"lo":0,"hi":50},{"y":1,"lo":0,"hi":50}],` +
		`"masters":[{"name":"INV","width":2,"height":1,"rail":"VSS"}],` +
		`"cells":[{"name":"u0","master":0,"gx":3.5,"gy":0.2}],` +
		`"nets":[{"name":"n0","pins":[{"cell":0,"dx":1,"dy":0.5},{"cell":-1,"dx":4,"dy":2}]}]}}`)
	f.Add(`{"bookshelf":{"aux":"b.aux","files":{"b.aux":"RowBasedPlacement : b.nodes b.nets b.pl b.scl"}}}`)

	// Classic corruption shapes: truncation, type confusion, hostile
	// numbers, panic-shaped designs, unknown fields, trailing documents.
	f.Add(submitJSON(f, SubmitRequest{DesignText: valid})[:40])
	f.Add(`{"design_text": 5}`)
	f.Add(`{"design_text":"design d 200 2000\nrow 0 0 10\nmaster m 0 1 VSS"}`)
	f.Add(`{"design_text":"design d 200 2000\nrow 99 0 10"}`)
	f.Add(`{"design":{"site_w":-1,"site_h":99999999999999999999}}`)
	f.Add(`{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],` +
		`"masters":[{"name":"m","width":1,"height":1,"rail":"VSS"}],` +
		`"cells":[{"name":"c","master":0,"gx":1e308,"gy":-1e308}]}}`)
	f.Add(`{"deadline_ms":-9223372036854775808,"design_text":"design d 200 2000\nrow 0 0 10"}`)
	f.Add(`{"frobnicate":{}}`)
	f.Add(`{} {}`)
	f.Add(`null`)
	f.Add(``)

	// Which member encoding/json binds to design_text, and how it decodes
	// the string: the splice must agree on both.
	small := `"design d 200 2000\nrow 0 0 10\nmaster m 1 1 VSS\ncell a 0 1 0\n"`
	other := `"design e 200 2000\nrow 0 0 12\nrow 1 0 12\nmaster m 1 1 VSS\n"`
	for _, s := range []string{
		// Two keys, and two spellings: the last member binds.
		`{"design_text":` + small + `,"design_text":` + other + `}`,
		`{"Design_Text":` + small + `,"design_text":` + other + `}`,
		`{"design_text":` + small + `,"DESIGN_TEXT":` + other + `}`,
		`{"design\u005fText":` + small + `}`,
		`{"de\u017fign_text":` + small + `}`, // U+017F folds to 's'
		`{"design_text\'":` + small + `}`,
		// Not top level: nested in config, a Bookshelf file name, a name.
		`{"design_text":` + small + `,"config":{"design_text":` + other + `}}`,
		`{"config":{"rx":3,"design_text":"x"},"design_text":` + small + `}`,
		`{"bookshelf":{"aux":"b.aux","files":{"design_text":` + small + `}}}`,
		`{"design":{"name":"design_text","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],"masters":[],"cells":[]}}`,
		`{"tenant":"design_text","design_text":` + small + `}`,
		`["design_text",` + small + `]`,
		// \u escapes: a surrogate pair, lone high and low surrogates, a
		// high surrogate before another high, and bad hex.
		`{"design_text":"design d\ud83d\ude00 200 2000\nrow 0 0 10\n"}`,
		`{"design_text":"design d\ud83dx 200 2000\nrow 0 0 10\n"}`,
		`{"design_text":"design d\ude00 200 2000\nrow 0 0 10\n"}`,
		`{"design_text":"design d\ud83d\ud83d\ude00 200 2000\nrow 0 0 10\n"}`,
		`{"design_text":"design d\u00a0\u2028 200 2000\nrow 0 0 10\n"}`,
		`{"design_text":"design d\u12 200 2000"}`,
		`{"design_text":"design d\u"}`,
		// Every other escape, one that only unquote would take, and an
		// escape cut by the end of input.
		`{"design_text":"design\td\/x 200 2000\r\nrow 0 0 10\f\b\"\\"}`,
		`{"design_text":"design d\' 200 2000"}`,
		`{"design_text":"design d 200 2000\`,
		// Invalid UTF-8 and raw control bytes inside the string.
		"{\"design_text\":\"design d\xff\xfe 200 2000\nrow 0 0 10\"}",
		"{\"design_text\":\"design d 200 2000\nrow 0 0 10\"}",
		"{\"design_text\":\"design d\t200 2000\\nrow 0 0 10\"}",
		"{\"design_text\":\"design d 200 2000\x00\"}",
		// null and values of other types, alone and after a string.
		`{"design_text":null}`,
		`{"design_text":` + small + `,"design_text":null}`,
		`{"design_text":` + small + `,"design_text":7}`,
		`{"design_text":["x"]}`,
		`{"design_text":{"a":"b"}}`,
		`{"design_text":true,"design_text":` + small + `}`,
		// An empty design_text next to a design, and the other way round.
		`{"design_text":"","design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],"masters":[],"cells":[]}}`,
		`{"design":{"name":"x","site_w":200,"site_h":2000,"rows":[{"y":0,"lo":0,"hi":10}],"masters":[],"cells":[]},"design_text":""}`,
		`{"design_text":` + small + `,"design":null}`,
		// Trailing documents and bytes.
		`{"design_text":` + small + `} {"design_text":` + other + `}`,
		`{"design_text":` + small + `}]`,
		`{"design_text":` + small + `}x`,
		`{"design_text":` + small + `,}`,
		`{"design_text":` + small,
		// Whitespace around every token.
		" \t\r\n{ \n\"tenant\" : \"t\" ,\r\n \"design_text\"\t:\n" + small + " ,\t\"deadline_ms\" : 5 ,\"config\" : { \"rx\" : 3 } \n} \r\n",
	} {
		f.Add(s)
	}

	// Milliseconds that overflow time.Duration when converted before the
	// MaxDeadline comparison: one wraps negative, one to 448µs. As
	// config.cell_timeout_ms, an unknown field, both sides must reject
	// them.
	for _, ms := range []int64{9_223_372_036_855, 18_446_744_073_710} {
		f.Add(submitJSON(f, SubmitRequest{DesignText: valid, DeadlineMS: ms}))
		f.Add(withConfig(f, valid, fmt.Sprintf(`"cell_timeout_ms":%d`, ms)))
	}

	// Small limits keep hostile payloads cheap: the fuzzer explores
	// structure, not scale.
	lim := Limits{MaxCells: 2000, MaxRows: 256, MaxNets: 2000}
	lim.defaults()
	base := core.DefaultConfig()

	f.Fuzz(func(t *testing.T, body string) {
		p, tenant, err := decodeSubmitBody(strings.NewReader(body), base, lim)
		if err == nil && (p == nil || p.d == nil || p.cfg.Validate() != nil) {
			t.Fatalf("nil/invalid payload with nil error: %+v", p)
		}
		if err != nil && p != nil {
			t.Fatal("non-nil payload alongside an error")
		}
		rp, rreq, rerr := referenceDecodeSubmitBody(strings.NewReader(body), base, lim)
		if diff := samePayload(p, tenant, err, rp, rreq, rerr); diff != "" {
			t.Fatal(diff)
		}
		if err != nil {
			return
		}
		// An admitted job's deadline is MaxDeadline, which a positive
		// deadline_ms can only shorten.
		want := lim.MaxDeadline
		if ms := rreq.DeadlineMS; ms > 0 && ms < lim.MaxDeadline.Milliseconds() {
			want = time.Duration(ms) * time.Millisecond
		}
		if p.deadline != want {
			t.Fatalf("deadline_ms %d: deadline %v, want %v", rreq.DeadlineMS, p.deadline, want)
		}
	})
}

// samePayload reports how a decode differs from the reference's, or "":
// both must fail with the same error text and code, or both succeed with
// the same design (placement checksum and all), netlist, config,
// deadline and tenant.
func samePayload(p *jobPayload, tenant string, err error, rp *jobPayload, rreq *SubmitRequest, rerr error) string {
	if (err == nil) != (rerr == nil) {
		return fmt.Sprintf("error %v, reference %v", err, rerr)
	}
	if err != nil {
		code, ok := IsBadRequest(err)
		rcode, rok := IsBadRequest(rerr)
		if err.Error() != rerr.Error() || code != rcode || ok != rok {
			return fmt.Sprintf("error %q (code %q), reference %q (code %q)", err, code, rerr, rcode)
		}
		return ""
	}
	if tenant != rreq.Tenant {
		return fmt.Sprintf("tenant %q, reference %q", tenant, rreq.Tenant)
	}
	if p.d.PlacementChecksum() != rp.d.PlacementChecksum() || !reflect.DeepEqual(p.d, rp.d) {
		return fmt.Sprintf("design %+v, reference %+v", p.d, rp.d)
	}
	if !reflect.DeepEqual(p.nl, rp.nl) {
		return fmt.Sprintf("netlist %+v, reference %+v", p.nl, rp.nl)
	}
	cfg, rcfg := p.cfg, rp.cfg
	if cfg.Constraints.Signature() != rcfg.Constraints.Signature() {
		return fmt.Sprintf("constraints %q, reference %q", cfg.Constraints.Signature(), rcfg.Constraints.Signature())
	}
	cfg.Constraints, rcfg.Constraints = nil, nil
	if !reflect.DeepEqual(cfg, rcfg) {
		return fmt.Sprintf("config %+v, reference %+v", cfg, rcfg)
	}
	if p.deadline != rp.deadline {
		return fmt.Sprintf("deadline %v, reference %v", p.deadline, rp.deadline)
	}
	return ""
}

// FuzzDecodeDelta asserts the same contract for the ECO session delta
// decoder (delta.go): any frame payload — corrupt JSON, type confusion,
// hostile numbers, stray or missing fields — must yield either a valid
// batch or a bad_request error, never a panic. The committed corpus
// (testdata/fuzz/FuzzDecodeDelta) pins regressions.
func FuzzDecodeDelta(f *testing.F) {
	// One well-formed batch of every op, then corruption shapes.
	f.Add(`{"deltas":[{"op":"move","cell":3,"x":41.5,"y":2}]}`)
	f.Add(`{"deltas":[{"op":"resize","cell":7,"w":4},{"op":"delete","cell":9}]}`)
	f.Add(`{"deltas":[{"op":"insert","master":1,"x":10,"y":3,"name":"eco_buf"}]}`)
	f.Add(`{"deltas":[{"op":"move","cell":3,"x":41.5,"y":2}`)      // truncated
	f.Add(`{"deltas":[{"op":"move","cell":"three","x":1,"y":1}]}`) // type confusion
	f.Add(`{"deltas":[{"op":"move","cell":3,"x":1e308,"y":-1e308}]}`)
	f.Add(`{"deltas":[{"op":"move","cell":-1,"x":1,"y":1}]}`)
	f.Add(`{"deltas":[{"op":"resize","cell":1,"w":-4}]}`)
	f.Add(`{"deltas":[{"op":"insert","master":-2,"x":0,"y":0}]}`)
	f.Add(`{"deltas":[{"op":"delete","cell":1,"w":4}]}`) // stray field
	f.Add(`{"deltas":[{"op":"warp","cell":1}]}`)
	f.Add(`{"deltas":[{"cell":1}]}`)
	f.Add(`{"deltas":[]}`)
	f.Add(`{"deltas":[{}]} {"deltas":[{}]}`) // trailing document
	f.Add(`{"frobnicate":[]}`)
	f.Add(`null`)
	f.Add(``)

	lim := Limits{MaxDeltasPerBatch: 64}
	f.Fuzz(func(t *testing.T, payload string) {
		ds, err := DecodeDeltaBatch([]byte(payload), lim)
		if err == nil && len(ds) == 0 {
			t.Fatal("empty batch with nil error")
		}
		if err != nil {
			if ds != nil {
				t.Fatal("non-nil batch alongside an error")
			}
			if code, ok := IsBadRequest(err); !ok || code == "" {
				t.Fatalf("decode error is not a stable bad request: %v", err)
			}
		}
	})
}
