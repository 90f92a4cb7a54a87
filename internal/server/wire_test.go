package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestRowRoundTripCases pins the wire behaviour on the values the engine
// actually produces: Skolem values (unicode brackets + \x1f separators),
// empty strings, control characters, the tuple-key separator, and raw
// non-UTF-8 bytes.
func TestRowRoundTripCases(t *testing.T) {
	cases := []storage.Tuple{
		{},
		{""},
		{"plain", "values"},
		{"⟨v_f0:a\x1fb⟩", "x"},                  // Skolem value
		{"\x00", "\x1f", "\x7f", "\r\n\t"},      // control characters
		{"a\x1fb"},                              // the Tuple.Key separator
		{string([]byte{0xff, 0xfe, 0x01}), "k"}, // not valid UTF-8
		{string([]byte{0xc3, 0x28})},            // truncated UTF-8 sequence
		{"mixed\xffmiddle"},
		{`quotes " and \ backslashes`},
		{"unicode ünïcødé 日本語"},
	}
	for _, tup := range cases {
		data, err := json.Marshal(Row(tup))
		if err != nil {
			t.Fatalf("%q: marshal: %v", tup, err)
		}
		var got Row
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%q: unmarshal: %v", tup, err)
		}
		if len(got) != len(tup) {
			t.Fatalf("%q: round-trip length %d", tup, len(got))
		}
		for i := range tup {
			if got[i] != tup[i] {
				t.Fatalf("column %d: %q -> %q", i, tup[i], got[i])
			}
		}
	}
}

// TestRowRoundTripProperty is the randomized property: any byte-string
// tuple round-trips the wire encoding unchanged.
func TestRowRoundTripProperty(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(0xA17E))
	randValue := func() string {
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			switch rng.Intn(4) {
			case 0: // printable ASCII
				b[i] = byte(' ' + rng.Intn(95))
			case 1: // control characters
				b[i] = byte(rng.Intn(32))
			case 2: // high bytes — frequently invalid UTF-8
				b[i] = byte(128 + rng.Intn(128))
			default: // anything
				b[i] = byte(rng.Intn(256))
			}
		}
		if rng.Intn(8) == 0 { // Skolem-shaped
			return "⟨v_f" + string(b) + ":" + string(b) + "\x1f" + string(b) + "⟩"
		}
		return string(b)
	}
	for trial := 0; trial < trials; trial++ {
		rows := make(Rows, rng.Intn(5))
		for i := range rows {
			tup := make(storage.Tuple, 1+rng.Intn(4))
			for j := range tup {
				tup[j] = randValue()
			}
			rows[i] = tup
		}
		data, err := json.Marshal(rows)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var got Rows
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("trial %d: %d rows -> %d", trial, len(rows), len(got))
		}
		for i := range rows {
			if storage.Tuple(got[i]).Key() != rows[i].Key() {
				t.Fatalf("trial %d row %d: %q -> %q", trial, i, rows[i], got[i])
			}
		}
	}
}

// TestRowsMarshalEmptyAsArray: a nil answer set must encode as [], not
// null, so clients can iterate unconditionally.
func TestRowsMarshalEmptyAsArray(t *testing.T) {
	data, err := json.Marshal(answersResponse{Answers: nil})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"answers":[]`) {
		t.Fatalf("nil answers encoded as %s, want []", data)
	}
}

// TestRowUnmarshalRejectsGarbage: malformed columns are typed errors, not
// silent corruption.
func TestRowUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`[42]`,                          // number column
		`[true]`,                        // bool column
		`[{"b64":"@@@@"}]`,              // invalid base64
		`[[1,2]]`,                       // nested array column
		`{"not":"an array"}`,            // row must be an array
		`[{"b64": 5}]`,                  // wrong b64 type
		`[{}]`,                          // no b64 key
		`[{"x":"y"}]`,                   // another key
		`[{"b64":null}]`,                // null value
		`[{"B64":"YQ=="}]`,              // key in another case
		`[{"b64":"YQ==","x":1}]`,        // an extra key
		`[{"b64":"YQ==","b64":"Yg=="}]`, // a repeated key
		`[{"b64":{"b64":"YQ=="}}]`,      // nested object
	} {
		var r Row
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

// TestBatchRejectsLaxB64Columns: a /v1/batch whose column is an object of
// any shape but {"b64": "<string>"} is a 400 bad_request and inserts
// nothing — in particular not the empty string.
func TestBatchRejectsLaxB64Columns(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 5, Config{LiveUpdates: true})
	_, ts := testServer(t, ns)
	for _, col := range []string{`{}`, `{"x":"y"}`, `{"b64":null}`, `{"b64":"YQ==","x":"y"}`} {
		body := `{"updates": {"r": [[` + col + `, "m0"]]}}`
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusBadRequest, CodeBadRequest)
	}
	resp := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(X,Y) :- r(X,Y)"})
	var ar answersResponse
	decodeInto(t, resp, &ar)
	if ar.Count != 5 {
		t.Fatalf("base mutated by rejected batches: %d rows", ar.Count)
	}
}

// TestStdlibJSONCorruptsRawStrings documents why the b64 escape exists: Go's
// encoding/json replaces invalid UTF-8 with U+FFFD, so a plain []string
// wire format would not round-trip raw bytes.
func TestStdlibJSONCorruptsRawStrings(t *testing.T) {
	raw := string([]byte{0xff})
	data, err := json.Marshal([]string{raw})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got[0] == raw {
		t.Skip("stdlib started round-tripping invalid UTF-8; the b64 escape is belt-and-braces now")
	}
	// The corruption is real — confirm our codec fixes it.
	wire, err := json.Marshal(Row{raw})
	if err != nil {
		t.Fatal(err)
	}
	var fixed Row
	if err := json.Unmarshal(wire, &fixed); err != nil {
		t.Fatal(err)
	}
	if fixed[0] != raw {
		t.Fatalf("wire codec also corrupts: %q -> %q", raw, fixed[0])
	}
}
