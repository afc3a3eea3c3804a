package service

import (
	"bytes"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// spliceDesignText takes a submission's design_text out of body before
// encoding/json sees it. A Table-1 text is megabytes of one JSON string,
// and encoding/json would scan it byte by byte, unquote it into a buffer
// and copy that into a string, all before iodesign.Read starts.
//
// It finds the member encoding/json binds to SubmitRequest.DesignText:
// the last top-level member whose unescaped key equals "design_text"
// under bytes.EqualFold (encoding/json's case-insensitive field match)
// and whose value is a string. A later null leaves that string bound, and
// a later value of any other type fails the decode whatever the string
// holds. It decodes that string by encoding/json's unquote rules into
// text, then rewrites the string in body to "" in place and returns the
// shortened body.
//
// The splice cannot change what encoding/json reports. The members are
// found with JSON's own grammar, so when the bytes before the string are
// valid JSON, the string's span is the one encoding/json scans; the
// string is spliced only if it is itself a valid literal, so both spans
// leave encoding/json in the same state; and no encoding/json message
// carries a byte offset. When the bytes before it are not valid JSON,
// encoding/json fails there, before the string. If there is no such
// member, or the body is not an object, or anything is malformed,
// nothing is spliced: text is nil and encoding/json sees the body as it
// came. None of those bodies makes encoding/json bind a non-empty
// design_text, since skipValue passes over every valid JSON value, so
// text is the whole of the submission's design text.
func spliceDesignText(body []byte) (out, text []byte) {
	lo, hi := -1, -1 // the bound string literal, quotes included
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return body, nil
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return body, nil
	}
	var keyBuf [32]byte
	for {
		if i == len(body) || body[i] != '"' {
			return body, nil
		}
		key, kEnd, kok := unquoteJSON(keyBuf[:0], body, i)
		if !kok {
			return body, nil
		}
		i = skipSpace(body, kEnd)
		if i == len(body) || body[i] != ':' {
			return body, nil
		}
		i = skipSpace(body, i+1)
		var vEnd int
		if i < len(body) && body[i] == '"' && bytes.EqualFold(key, []byte("design_text")) {
			// Decoded as it is found, so the string is read once. A
			// string that does not decode fails encoding/json too.
			if text == nil {
				text = make([]byte, 0, len(body)-i)
			}
			var vok bool
			if text, vEnd, vok = unquoteJSON(text[:0], body, i); !vok {
				return body, nil
			}
			lo, hi = i, vEnd
		} else if vEnd = skipValue(body, i); vEnd < 0 {
			return body, nil
		}
		i = skipSpace(body, vEnd)
		if i == len(body) {
			return body, nil
		}
		if body[i] == '}' {
			break
		}
		if body[i] != ',' {
			return body, nil
		}
		i = skipSpace(body, i+1)
	}
	if lo < 0 {
		return body, nil
	}
	body[lo+1] = '"'
	return append(body[:lo+2], body[hi:]...), text
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string literal that opens at
// b[i], or -1 if it does not close. Escapes are not checked here: a quote
// ends the string unless an odd run of backslashes precedes it.
func skipString(b []byte, i int) int {
	for j := i + 1; ; {
		q := bytes.IndexByte(b[j:], '"')
		if q < 0 {
			return -1
		}
		j += q
		k := j
		for b[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			return j + 1
		}
		j++
	}
}

// skipValue returns the index just past the JSON value that starts at
// b[i], or -1 if it does not end. Only the value's extent is found;
// encoding/json checks the rest.
func skipValue(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				if i = skipString(b, i); i < 0 {
					return -1
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
		return -1
	}
	// A number or a literal ends at the next delimiter.
	j := i
	for j < len(b) && b[j] != ',' && b[j] != '}' && b[j] != ']' && b[j] != ' ' &&
		b[j] != '\t' && b[j] != '\n' && b[j] != '\r' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquoteJSON decodes the string literal that opens at b[i] as
// encoding/json decodes a string, appends it to dst, and returns the index
// just past the closing quote: each \uXXXX surrogate pair becomes its
// rune, and a lone surrogate and each byte of invalid UTF-8 become U+FFFD.
// It reports false wherever encoding/json's scanner would reject the
// literal: a raw byte below 0x20, an escape other than \" \\ \/ \b \f \n
// \r \t and \u with four hex digits, or no closing quote.
func unquoteJSON(dst, b []byte, i int) ([]byte, int, bool) {
	for i++; i < len(b); {
		j := i
		for j < len(b) && plainByte[b[j]] {
			j++
		}
		dst = append(dst, b[i:j]...)
		if i = j; i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			return dst, i + 1, true
		case c == '\\':
			if i+1 == len(b) {
				return dst, 0, false
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(b[i:])
				if r < 0 {
					return dst, 0, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(b[i:])); dec != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default:
				return dst, 0, false
			}
			i += 2
		case c < ' ':
			return dst, 0, false
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				dst = utf8.AppendRune(dst, r)
			} else {
				dst = append(dst, b[i:i+n]...)
			}
			i += n
		}
	}
	return dst, 0, false
}

// hex4 returns the code unit of the \uXXXX escape that s starts with, or
// -1 if s does not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
