package service

import (
	"encoding/json"
	"testing"
)

// TestSpliceDesignText pins which member the splice takes and how it
// decodes the string, and that it leaves alone every body where it
// cannot be sure: each spliced text must equal what encoding/json binds
// to DesignText from the original body, and on each body left alone
// encoding/json must bind nothing or fail, since the server reads its
// design text from the splice only.
func TestSpliceDesignText(t *testing.T) {
	cases := []struct {
		name, body string
		text, out  string // out is empty when nothing is spliced
	}{
		{"escapes", `{"design_text":"a\nb\t\"c\"\/\\"}`, "a\nb\t\"c\"/\\", `{"design_text":""}`},
		{"last member binds", `{"Design_Text":"x","design_text":"y"}`, "y", `{"Design_Text":"x","design_text":""}`},
		{"null keeps the string", ` {"design_text" : "x" , "design_text":null} `, "x", ` {"design_text" : "" , "design_text":null} `},
		{"escaped key", `{"design\u005ftext":"x","rx":1}`, "x", `{"design\u005ftext":"","rx":1}`},
		{"folded key", `{"deſign_TEXT":"x"}`, "x", `{"deſign_TEXT":""}`},
		{"surrogates", `{"design_text":"😀\ud83d!\udc00\ud83d😀"}`,
			"\U0001F600�!��\U0001F600", `{"design_text":""}`},
		{"invalid UTF-8", "{\"design_text\":\"a\xffb\xc3\"}", "a�b�", `{"design_text":""}`},
		{"nested only", `{"config":{"design_text":"x"},"bookshelf":{"files":{"design_text":"y"}}}`, "", ""},
		{"not an object", `["design_text","x"]`, "", ""},
		{"escape json rejects", `{"design_text":"x\'"}`, "", ""},
		{"raw control byte", "{\"design_text\":\"x\ny\"}", "", ""},
		{"unterminated", `{"design_text":"x"`, "", ""},
		{"trailing comma", `{"design_text":"x",}`, "", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, text := spliceDesignText([]byte(c.body))
			spliced := text != nil
			if spliced != (c.out != "") || string(text) != c.text || spliced && string(out) != c.out {
				t.Fatalf("splice = %q, %q; want %q, %q", out, text, c.out, c.text)
			}
			if !spliced && string(out) != c.body {
				t.Fatalf("unspliced body changed to %q", out)
			}
			var req SubmitRequest
			err := json.Unmarshal([]byte(c.body), &req)
			switch {
			case spliced && err != nil:
				t.Fatal(err)
			case err == nil && req.DesignText != c.text:
				t.Fatalf("encoding/json binds %q, splice took %q", req.DesignText, c.text)
			}
		})
	}
}
