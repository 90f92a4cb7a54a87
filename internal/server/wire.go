package server

// Wire encoding of tuples. Tuple values are arbitrary byte strings: Skolem
// values embed \x1f separators and angle brackets, user data can carry
// empty strings, control characters, or bytes that are not valid UTF-8 at
// all. encoding/json silently replaces invalid UTF-8 with U+FFFD when
// marshalling a Go string, which would corrupt such values in flight, so
// the wire format encodes each column as either
//
//   - a plain JSON string, when the value is valid UTF-8 (JSON string
//     escaping already round-trips control characters exactly), or
//   - {"b64": "<base64>"}, when it is not.
//
// A column is therefore a JSON string or a JSON object — never ambiguous —
// and every byte string round-trips unchanged. Rows are arrays of columns,
// answer sets arrays of rows.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/storage"
)

// answerBufs pools the reply buffers of writeAnswers.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply caps the buffers answerBufs keeps: the buffer of a rare
// huge answer set goes to the GC instead of staying pinned in the pool.
const maxPooledReply = 1 << 20

// writeAnswers writes the 200 reply of exec and query from a pooled buffer,
// with its Content-Length.
func writeAnswers(w http.ResponseWriter, answers []storage.Tuple) {
	bp := answerBufs.Get().(*[]byte)
	b := appendAnswers((*bp)[:0], answers)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledReply {
		*bp = b
		answerBufs.Put(bp)
	}
}

// appendAnswers appends the reply body {"answers":[…],"count":N} and a
// newline: the bytes json.Encoder writes for that object.
func appendAnswers(dst []byte, answers []storage.Tuple) []byte {
	dst = append(dst, `{"answers":`...)
	dst = appendRows(dst, answers)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(answers)), 10)
	return append(dst, "}\n"...)
}

// appendRows appends the wire encoding of an answer set to dst in one pass:
// an array of rows, each an array of columns. The bytes are exactly those
// encoding/json produces for the same values: HTML-safe escaping of <, >
// and &, \u2028 and \u2029 escaped, the short escapes \b \f \n \r \t and
// \u00XX for the other control bytes. A nil answer set encodes as [], not
// null: clients iterate it either way.
func appendRows(dst []byte, rows []storage.Tuple) []byte {
	dst = append(dst, '[')
	for i, t := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRow(dst, t)
	}
	return append(dst, ']')
}

// appendRow appends one tuple as an array of columns.
func appendRow(dst []byte, t storage.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendColumn(dst, v)
	}
	return append(dst, ']')
}

// appendColumn appends one column: a JSON string when v is valid UTF-8,
// else the escape form {"b64":"<base64>"}. Validity is decided during the
// escaping scan; on the first invalid byte the partial string is dropped.
func appendColumn(dst []byte, v string) []byte {
	mark := len(dst)
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(v); {
		if b := v[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, v[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes, <, > and &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(v[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst[:mark], `{"b64":"`...)
			dst = base64.StdEncoding.AppendEncode(dst, []byte(v))
			return append(dst, `"}`...)
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, v[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, v[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes that appear in an encoded string as
// themselves: everything from space up except ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// errNotB64 rejects an object column of any shape but {"b64": "<string>"}.
var errNotB64 = errors.New(`server: object column must be exactly {"b64": "<base64 string>"}`)

// decodeB64Column decodes the escape form of a column. The object must be
// exactly {"b64": "<base64 string>"}: a missing, null or non-string value,
// another key, or a repeated one is an error, never an empty string.
func decodeB64Column(c json.RawMessage) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(c))
	var toks [4]json.Token
	for i := range toks {
		tok, err := dec.Token()
		if err != nil {
			return "", errNotB64
		}
		toks[i] = tok
	}
	s, ok := toks[2].(string)
	if toks[0] != json.Delim('{') || toks[1] != "b64" || !ok || toks[3] != json.Delim('}') {
		return "", errNotB64
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return "", fmt.Errorf("bad base64: %w", err)
	}
	return string(raw), nil
}

// Row is one tuple on the wire.
type Row storage.Tuple

// MarshalJSON encodes the row as an array of columns.
func (r Row) MarshalJSON() ([]byte, error) {
	return appendRow(nil, storage.Tuple(r)), nil
}

// UnmarshalJSON decodes an array of columns.
func (r *Row) UnmarshalJSON(data []byte) error {
	var cols []json.RawMessage
	if err := json.Unmarshal(data, &cols); err != nil {
		return err
	}
	out := make(Row, len(cols))
	for i, c := range cols {
		if len(c) == 0 {
			return fmt.Errorf("server: empty column %d", i)
		}
		switch c[0] {
		case '"':
			var s string
			if err := json.Unmarshal(c, &s); err != nil {
				return err
			}
			out[i] = s
		case '{':
			s, err := decodeB64Column(c)
			if err != nil {
				return fmt.Errorf("server: column %d: %w", i, err)
			}
			out[i] = s
		default:
			return fmt.Errorf("server: column %d is neither a string nor a b64 object", i)
		}
	}
	*r = out
	return nil
}

// Rows is an answer set (or insert batch) on the wire.
type Rows []storage.Tuple

// MarshalJSON encodes every tuple as a Row; see appendRows.
func (rs Rows) MarshalJSON() ([]byte, error) {
	return appendRows(nil, rs), nil
}

// UnmarshalJSON decodes an array of Rows.
func (rs *Rows) UnmarshalJSON(data []byte) error {
	var rows []Row
	if err := json.Unmarshal(data, &rows); err != nil {
		return err
	}
	out := make(Rows, len(rows))
	for i, r := range rows {
		out[i] = storage.Tuple(r)
	}
	*rs = out
	return nil
}
