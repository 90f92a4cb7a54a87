package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"regexp"
	"sort"

	"repro/internal/storage"
)

// Binary formats. Everything on disk is little-endian, length-prefixed and
// checksummed with CRC32-C (Castagnoli — the polynomial with hardware
// support on amd64/arm64):
//
//	segment file (one relation, columnar):
//	  magic "AQVSEG01" | u32 arity | u32 rows
//	  per column: u64 colBytes | rows × (u32 len | bytes)
//	  u32 CRC32C over everything before it
//
//	WAL file:
//	  magic "AQVWAL01"
//	  per record: u32 payloadLen | u32 CRC32C(payload) | payload
//	  payload: u64 lsn | group(deletes) | group(inserts)
//	  group: u32 nPreds | per pred: str name | u32 arity | u32 nTuples |
//	         nTuples × arity × str   (str = u32 len | bytes)
//
// Decoders are hardened against arbitrary bytes (they feed the fuzz
// targets): every length is bounds-checked against the remaining input
// before any allocation sized from it, so malformed input errors out
// instead of panicking or ballooning memory.

const (
	segMagic = "AQVSEG01"
	walMagic = "AQVWAL01"

	// manifestFormat versions the snapshot layout as a whole; a reader
	// refuses manifests from the future.
	manifestFormat = 1

	// maxRecordBytes bounds a single WAL record frame; a larger length
	// prefix is treated as corruption.
	maxRecordBytes = 1 << 30

	maxArity = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one durable update batch — exactly the ApplyUpdateCtx unit, in
// apply order (deletes before inserts).
type Record struct {
	LSN     uint64
	Deletes map[string][]storage.Tuple
	Inserts map[string][]storage.Tuple
}

// buf is a bounds-checked cursor over an input byte slice.
type buf struct {
	data []byte
	off  int
}

func (b *buf) remaining() int { return len(b.data) - b.off }

func (b *buf) u32() (uint32, error) {
	if b.remaining() < 4 {
		return 0, fmt.Errorf("durable: truncated u32 at offset %d", b.off)
	}
	v := binary.LittleEndian.Uint32(b.data[b.off:])
	b.off += 4
	return v, nil
}

func (b *buf) u64() (uint64, error) {
	if b.remaining() < 8 {
		return 0, fmt.Errorf("durable: truncated u64 at offset %d", b.off)
	}
	v := binary.LittleEndian.Uint64(b.data[b.off:])
	b.off += 8
	return v, nil
}

func (b *buf) str() (string, error) {
	n, err := b.u32()
	if err != nil {
		return "", err
	}
	if int64(n) > int64(b.remaining()) {
		return "", fmt.Errorf("durable: string length %d exceeds remaining %d bytes", n, b.remaining())
	}
	s := string(b.data[b.off : b.off+int(n)])
	b.off += int(n)
	return s, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// sortedPreds returns the map's predicates in deterministic order so the
// encoded bytes of a batch are reproducible.
func sortedPreds(m map[string][]storage.Tuple) []string {
	preds := make([]string, 0, len(m))
	for p := range m {
		if len(m[p]) > 0 {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	return preds
}

func appendGroup(dst []byte, m map[string][]storage.Tuple) []byte {
	preds := sortedPreds(m)
	dst = appendU32(dst, uint32(len(preds)))
	for _, p := range preds {
		tuples := m[p]
		arity := len(tuples[0])
		dst = appendStr(dst, p)
		dst = appendU32(dst, uint32(arity))
		dst = appendU32(dst, uint32(len(tuples)))
		for _, t := range tuples {
			for _, v := range t {
				dst = appendStr(dst, v)
			}
		}
	}
	return dst
}

// encodeRecordPayload serializes one update batch (the WAL record body,
// excluding the frame header).
func encodeRecordPayload(lsn uint64, deletes, inserts map[string][]storage.Tuple) []byte {
	dst := appendU64(nil, lsn)
	dst = appendGroup(dst, deletes)
	dst = appendGroup(dst, inserts)
	return dst
}

func decodeGroup(b *buf) (map[string][]storage.Tuple, error) {
	n, err := b.u32()
	if err != nil {
		return nil, err
	}
	// Each predicate entry costs at least 12 bytes (empty name + arity +
	// count), so n is bounded by the input.
	if int64(n)*12 > int64(b.remaining()) {
		return nil, fmt.Errorf("durable: group claims %d predicates in %d bytes", n, b.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	out := make(map[string][]storage.Tuple, n)
	for i := 0; i < int(n); i++ {
		pred, err := b.str()
		if err != nil {
			return nil, err
		}
		if pred == "" {
			return nil, fmt.Errorf("durable: empty predicate name in record")
		}
		arity, err := b.u32()
		if err != nil {
			return nil, err
		}
		if arity == 0 || arity > maxArity {
			return nil, fmt.Errorf("durable: predicate %s: arity %d out of range", pred, arity)
		}
		count, err := b.u32()
		if err != nil {
			return nil, err
		}
		// Every tuple value carries a 4-byte length prefix.
		if int64(count)*int64(arity)*4 > int64(b.remaining()) {
			return nil, fmt.Errorf("durable: predicate %s: %d tuples of arity %d exceed remaining %d bytes", pred, count, arity, b.remaining())
		}
		if _, dup := out[pred]; dup {
			return nil, fmt.Errorf("durable: predicate %s repeated in record group", pred)
		}
		tuples := make([]storage.Tuple, int(count))
		for j := range tuples {
			t := make(storage.Tuple, int(arity))
			for c := range t {
				v, err := b.str()
				if err != nil {
					return nil, err
				}
				t[c] = v
			}
			tuples[j] = t
		}
		out[pred] = tuples
	}
	return out, nil
}

// decodeRecordPayload parses one WAL record body. It never panics:
// malformed input returns an error.
func decodeRecordPayload(payload []byte) (Record, error) {
	b := &buf{data: payload}
	lsn, err := b.u64()
	if err != nil {
		return Record{}, err
	}
	deletes, err := decodeGroup(b)
	if err != nil {
		return Record{}, err
	}
	inserts, err := decodeGroup(b)
	if err != nil {
		return Record{}, err
	}
	if b.remaining() != 0 {
		return Record{}, fmt.Errorf("durable: %d trailing bytes after record", b.remaining())
	}
	return Record{LSN: lsn, Deletes: deletes, Inserts: inserts}, nil
}

// encodeSegment serializes one relation's tuples column by column.
func encodeSegment(tuples []storage.Tuple, arity int) []byte {
	dst := append([]byte(nil), segMagic...)
	dst = appendU32(dst, uint32(arity))
	dst = appendU32(dst, uint32(len(tuples)))
	for c := 0; c < arity; c++ {
		colBytes := 0
		for _, t := range tuples {
			colBytes += 4 + len(t[c])
		}
		dst = appendU64(dst, uint64(colBytes))
		for _, t := range tuples {
			dst = appendStr(dst, t[c])
		}
	}
	return appendU32(dst, crc32.Checksum(dst, castagnoli))
}

// decodeSegment parses and verifies one segment file. wantArity and
// wantRows come from the manifest; -1 skips the cross-check (fuzzing).
func decodeSegment(data []byte, wantArity, wantRows int) ([]storage.Tuple, int, error) {
	if len(data) < len(segMagic)+4+4+4 {
		return nil, 0, fmt.Errorf("durable: segment too short (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, 0, fmt.Errorf("durable: bad segment magic %q", data[:len(segMagic)])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, 0, fmt.Errorf("durable: segment checksum mismatch (got %08x, want %08x)", got, sum)
	}
	b := &buf{data: body, off: len(segMagic)}
	arity32, err := b.u32()
	if err != nil {
		return nil, 0, err
	}
	rows32, err := b.u32()
	if err != nil {
		return nil, 0, err
	}
	arity, rows := int(arity32), int(rows32)
	if arity32 == 0 || arity32 > maxArity {
		return nil, 0, fmt.Errorf("durable: segment arity %d out of range", arity32)
	}
	if wantArity >= 0 && arity != wantArity {
		return nil, 0, fmt.Errorf("durable: segment arity %d, manifest says %d", arity, wantArity)
	}
	if wantRows >= 0 && rows != wantRows {
		return nil, 0, fmt.Errorf("durable: segment holds %d rows, manifest says %d", rows, wantRows)
	}
	// Every value costs at least its 4-byte length prefix; reject row and
	// arity claims the input cannot possibly hold before allocating.
	if int64(rows)*int64(arity)*4 > int64(b.remaining()) {
		return nil, 0, fmt.Errorf("durable: segment claims %d rows of arity %d in %d bytes", rows, arity, b.remaining())
	}
	tuples := make([]storage.Tuple, rows)
	for i := range tuples {
		tuples[i] = make(storage.Tuple, arity)
	}
	for c := 0; c < arity; c++ {
		colBytes, err := b.u64()
		if err != nil {
			return nil, 0, err
		}
		start := b.off
		for i := 0; i < rows; i++ {
			v, err := b.str()
			if err != nil {
				return nil, 0, err
			}
			tuples[i][c] = v
		}
		if int64(b.off-start) != int64(colBytes) {
			return nil, 0, fmt.Errorf("durable: column %d consumed %d bytes, header says %d", c, b.off-start, colBytes)
		}
	}
	if b.remaining() != 0 {
		return nil, 0, fmt.Errorf("durable: %d trailing bytes after segment columns", b.remaining())
	}
	return tuples, arity, nil
}

// Manifest describes one snapshot: the format version, the log position it
// captures, the view definitions it was materialized under, and every
// relation segment with its checksum and statistics.
type Manifest struct {
	Format        int    `json:"format"`
	LSN           uint64 `json:"lsn"`
	CreatedUnixNs int64  `json:"created_unix_ns"`
	// ViewsFingerprint identifies the view-definition set the extents were
	// materialized under; a mismatch at open time means the snapshot's
	// extents are stale and only its base relations are trustworthy.
	ViewsFingerprint string         `json:"views_fingerprint"`
	Layout           string         `json:"layout"`
	Relations        []RelationMeta `json:"relations"`
	// Baseline persists the maintainer's deletion baseline: per derived
	// predicate, the keys of facts that existed as base facts before
	// materialization (their support is the base relation itself).
	Baseline map[string][]string `json:"baseline,omitempty"`
}

// LayoutFull marks a snapshot holding the base relations and every view
// extent — the maintainer's full state, from which any serving layout
// (base+extents, or extents-only for inverse rules) is derivable.
const LayoutFull = "full"

// RelationMeta describes one relation segment in a snapshot.
type RelationMeta struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
	Rows  int    `json:"rows"`
	// Extent marks materialized view extents (vs base relations).
	Extent bool `json:"extent,omitempty"`
	// Distinct is the per-column distinct-value count captured from the
	// cost catalog, so a recovered engine plans with real statistics
	// without re-scanning every relation.
	Distinct []float64 `json:"distinct,omitempty"`
	File     string    `json:"file"`
	Bytes    int64     `json:"bytes"`
	CRC      uint32    `json:"crc32c"`
}

var segFileName = regexp.MustCompile(`^seg-\d{4}\.col$`)

// decodeManifest parses and validates a snapshot manifest. It never
// panics: malformed input returns an error.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("durable: manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("durable: manifest format %d, this build reads %d", m.Format, manifestFormat)
	}
	if m.Layout != LayoutFull {
		return nil, fmt.Errorf("durable: unknown snapshot layout %q", m.Layout)
	}
	seen := make(map[string]bool, len(m.Relations))
	files := make(map[string]bool, len(m.Relations))
	for i := range m.Relations {
		r := &m.Relations[i]
		if r.Name == "" {
			return nil, fmt.Errorf("durable: manifest relation %d has an empty name", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("durable: manifest repeats relation %s", r.Name)
		}
		seen[r.Name] = true
		if r.Arity <= 0 || r.Arity > maxArity {
			return nil, fmt.Errorf("durable: manifest relation %s: arity %d out of range", r.Name, r.Arity)
		}
		if r.Rows < 0 {
			return nil, fmt.Errorf("durable: manifest relation %s: negative row count", r.Name)
		}
		if len(r.Distinct) != 0 && len(r.Distinct) != r.Arity {
			return nil, fmt.Errorf("durable: manifest relation %s: %d distinct counts for arity %d", r.Name, len(r.Distinct), r.Arity)
		}
		if !segFileName.MatchString(r.File) {
			return nil, fmt.Errorf("durable: manifest relation %s: bad segment file name %q", r.Name, r.File)
		}
		if files[r.File] {
			return nil, fmt.Errorf("durable: manifest repeats segment file %s", r.File)
		}
		files[r.File] = true
		if r.Bytes < 0 {
			return nil, fmt.Errorf("durable: manifest relation %s: negative segment size", r.Name)
		}
	}
	for pred, keys := range m.Baseline {
		if pred == "" {
			return nil, fmt.Errorf("durable: manifest baseline has an empty predicate name")
		}
		if !seen[pred] {
			return nil, fmt.Errorf("durable: manifest baseline names unknown relation %s", pred)
		}
		_ = keys
	}
	return &m, nil
}

func encodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("durable: manifest: %w", err)
	}
	return append(data, '\n'), nil
}
