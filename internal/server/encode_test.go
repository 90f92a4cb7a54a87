package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"unicode/utf8"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/storage"
)

// The reflection-based wire encoder appendRows replaced, kept as the
// differential oracle: a []any per row with every column boxed (a string,
// or a b64Column for invalid UTF-8), marshalled by encoding/json, and the
// rows marshalled again around it. appendRows must reproduce its bytes.

type b64Column struct {
	B64 string `json:"b64"`
}

type oracleRow storage.Tuple

func (r oracleRow) MarshalJSON() ([]byte, error) {
	cols := make([]any, len(r))
	for i, v := range r {
		if utf8.ValidString(v) {
			cols[i] = v
		} else {
			cols[i] = b64Column{B64: base64.StdEncoding.EncodeToString([]byte(v))}
		}
	}
	return json.Marshal(cols)
}

type oracleRows []storage.Tuple

func (rs oracleRows) MarshalJSON() ([]byte, error) {
	rows := make([]oracleRow, len(rs))
	for i, t := range rs {
		rows[i] = oracleRow(t)
	}
	return json.Marshal(rows)
}

// oracleReply is the exec/query reply as json.Encoder wrote it.
func oracleReply(t testing.TB, rows []storage.Tuple) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(struct {
		Answers oracleRows `json:"answers"`
		Count   int        `json:"count"`
	}{rows, len(rows)})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncoding asserts that every encoding path — appendRows, Rows and Row
// through encoding/json, and the full reply — matches the oracle's bytes.
func checkEncoding(t testing.TB, rows []storage.Tuple) {
	t.Helper()
	want, err := json.Marshal(oracleRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendRows(nil, rows); !bytes.Equal(got, want) {
		t.Fatalf("appendRows(%q)\n got %s\nwant %s", rows, got, want)
	}
	if got, err := json.Marshal(Rows(rows)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal(Rows(%q)) = %s, %v\nwant %s", rows, got, err, want)
	}
	for _, r := range rows {
		want, err := json.Marshal(oracleRow(r))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := json.Marshal(Row(r)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal(Row(%q)) = %s, %v\nwant %s", r, got, err, want)
		}
	}
	if got, want := appendAnswers(nil, rows), oracleReply(t, rows); !bytes.Equal(got, want) {
		t.Fatalf("appendAnswers(%q)\n got %s\nwant %s", rows, got, want)
	}
}

// wireFragments are the pieces random column values are built from: every
// byte the string escaper treats specially, multi-byte runes including
// U+2028/2029 and a well-formed U+FFFD, and (rarely) bytes that make the
// value invalid UTF-8.
var wireFragments = func() []string {
	f := []string{"<", ">", "&", `"`, `\`, "/", "\u2028", "\u2029", "\ufffd",
		"é", "日本", "\U0001F600", "\x7f", "plain", "⟨v_f0:a\x1fb⟩"}
	for b := 0; b < 0x20; b++ {
		f = append(f, string(rune(b)))
	}
	return f
}()

func randWireValue(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(8); n > 0; n-- {
		switch k := rng.Intn(40); {
		case k == 0: // a lone high byte: invalid UTF-8
			b = append(b, byte(0x80+rng.Intn(0x80)))
		case k < 15:
			b = append(b, byte(' '+rng.Intn(95)))
		default:
			b = append(b, wireFragments[rng.Intn(len(wireFragments))]...)
		}
	}
	return string(b)
}

// TestAppendRowsMatchesOracle is the seeded differential test of the wire
// encoder: fixed edge cases (empty and nil answer sets, empty strings,
// every byte value alone, the HTML and line-separator escapes) and random
// rows must encode to the oracle's exact bytes.
func TestAppendRowsMatchesOracle(t *testing.T) {
	var everyByte storage.Tuple
	for b := 0; b < 256; b++ {
		everyByte = append(everyByte, string([]byte{byte(b)}))
	}
	for _, rows := range [][]storage.Tuple{
		nil,
		{},
		{{}},
		{nil, {""}, {"", ""}},
		{everyByte},
		{{"<script>alert('&amp;')</script>", "a\u2028b\u2029c", "\u2028", "x\ufffdy"}},
		{{"\b\f\n\r\t\x00\x1f", `"\"`, "\x7f"}},
		{{"ok\xffok", "\xc3\x28", "\xe2\x80", "\xed\xa0\x80"}}, // invalid: stray, truncated, surrogate
	} {
		checkEncoding(t, rows)
	}
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(0xE4C0DE))
	for trial := 0; trial < trials; trial++ {
		rows := make([]storage.Tuple, rng.Intn(4))
		for i := range rows {
			rows[i] = make(storage.Tuple, rng.Intn(4))
			for j := range rows[i] {
				rows[i][j] = randWireValue(rng)
			}
		}
		checkEncoding(t, rows)
	}
}

// wireBase is a namespace base whose answers need every escape: HTML
// characters, line separators, control bytes and invalid UTF-8, plus
// enough plain rows that a reply outgrows the HTTP writer's buffer.
func wireBase() *storage.Database {
	db := serveBase(600)
	for i, k := range []string{"k<&>", "k\u2028\u2029", "k\x00\x1f\n", "k\xff\xfe", ""} {
		db.Insert("r", storage.Tuple{k, fmt.Sprintf("m%d", i)})
	}
	return db
}

// TestAnswerRepliesWire: /v1/exec and /v1/query replies carry a correct
// Content-Length, are byte-identical to the oracle encoding of the
// engine's answers, and decode back to those answers.
func TestAnswerRepliesWire(t *testing.T) {
	views, err := cq.ParseViews(testViews)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewNamespace(DefaultNamespace, wireBase(), views, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, ns)
	check := func(name string, resp *http.Response, want []storage.Tuple) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", name, resp.StatusCode, readBody(t, resp))
		}
		body := readBody(t, resp)
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q, body has %d bytes", name, cl, len(body))
		}
		if !bytes.Equal(body, oracleReply(t, want)) {
			t.Fatalf("%s: reply differs from the oracle encoding:\n%s", name, body)
		}
		var ans answersResponse
		if err := json.Unmarshal(body, &ans); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if ans.Count != len(want) || !sameAnswers(ans.Answers, want) {
			t.Fatalf("%s: decoded %d answers, engine has %d", name, ans.Count, len(want))
		}
	}

	const full = "q(X,Y) :- r(X,Z), s(Z,Y)."
	want, err := ns.Engine.AnswerBudget(context.Background(), cq.MustParseQuery(full), engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 600 {
		t.Fatalf("full query has %d answers, want at least 600", len(want))
	}
	check("query", postJSON(t, ts.URL+"/v1/query", queryRequest{Query: full}), want)

	resp := postJSON(t, ts.URL+"/v1/prepare", prepareRequest{Query: "q(X) :- r(X,Z), s(Z,x0)."})
	var prep prepareResponse
	decodeInto(t, resp, &prep)
	for _, arg := range []string{"x0", "x3", "absent"} {
		want, err := ns.Engine.AnswerBudget(context.Background(),
			cq.MustParseQuery(fmt.Sprintf("q(X) :- r(X,Z), s(Z,%s).", arg)), engine.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		check("exec "+arg, postJSON(t, ts.URL+"/v1/exec", execRequest{Handle: prep.Handle, Args: Row{arg}}), want)
	}
}

// BenchmarkEncodeRows1000 encodes a 1000-row fan-out reply, the shape of a
// prepared fan-out exec: "append" is the one-pass encoder into a reused
// buffer, "reflect" the oracle it replaced.
func BenchmarkEncodeRows1000(b *testing.B) {
	rows := make([]storage.Tuple, 1000)
	for i := range rows {
		rows[i] = storage.Tuple{fmt.Sprintf("a%06d", i*37)}
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendAnswers(buf[:0], rows)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(struct {
				Answers oracleRows `json:"answers"`
				Count   int        `json:"count"`
			}{rows, len(rows)}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
