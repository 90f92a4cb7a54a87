package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
)

// Fuzz targets for the wire boundary: every request decoder must survive
// arbitrary bodies without panicking, and the Row/Rows encoding must
// round-trip to a fixed point. The seed corpora live under
// testdata/fuzz/<target>/; plain `go test` replays them, and
//
//	go test -run '^$' -fuzz FuzzDecodeBatch ./internal/server
//
// explores further.

// fuzzDecode runs the shared request decoder over body into a fresh value
// of the request type: it must accept the body or answer 400, never panic.
func fuzzDecode[T any](t *testing.T, body []byte) {
	w := httptest.NewRecorder()
	if !decode(w, httptest.NewRequest("POST", "/v1/x", bytes.NewReader(body)), new(T)) && w.Code != 400 {
		t.Fatalf("rejected body answered %d, want 400", w.Code)
	}
}

func FuzzDecodePrepare(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { fuzzDecode[prepareRequest](t, body) })
}

func FuzzDecodeExec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { fuzzDecode[execRequest](t, body) })
}

func FuzzDecodeQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { fuzzDecode[queryRequest](t, body) })
}

func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { fuzzDecode[batchRequest](t, body) })
}

// FuzzRowsRoundTrip checks the wire encoding three ways. Any body Rows
// accepts re-encodes to a fixed point: decoding the encoding yields the
// same rows, which encode to the same bytes. A row of arbitrary byte
// strings (the input split at NUL) survives encode/decode unchanged,
// invalid UTF-8 included. And every encoding is byte-identical to the
// reflection oracle's (checkEncoding).
func FuzzRowsRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows Rows
		if json.Unmarshal(data, &rows) == nil {
			checkEncoding(t, rows)
			enc, err := json.Marshal(rows)
			if err != nil {
				t.Fatalf("encode decoded rows: %v", err)
			}
			var again Rows
			if err := json.Unmarshal(enc, &again); err != nil {
				t.Fatalf("decode own encoding %s: %v", enc, err)
			}
			if !reflect.DeepEqual(again, rows) {
				t.Fatalf("round trip changed rows: %q -> %q", rows, again)
			}
			if enc2, _ := json.Marshal(again); !bytes.Equal(enc2, enc) {
				t.Fatalf("encoding is not a fixed point: %s -> %s", enc, enc2)
			}
		}
		want := Rows{storage.Tuple(strings.Split(string(data), "\x00"))}
		checkEncoding(t, want)
		enc, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Rows
		if err := json.Unmarshal(enc, &got); err != nil {
			t.Fatalf("decode %s: %v", enc, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("byte-string row changed in flight: %q -> %q", want, got)
		}
	})
}
