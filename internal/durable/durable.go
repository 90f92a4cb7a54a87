// Package durable persists a serving engine's state so a cold process
// resumes in milliseconds instead of re-materializing every view extent.
// Two structures cooperate:
//
//   - A snapshot: one directory per checkpoint holding a columnar,
//     checksummed segment file per relation (base relations and
//     materialized extents alike) plus a JSON manifest recording the
//     format version, the log position (LSN), the view-definition
//     fingerprint, per-relation statistics for the cost catalog, and the
//     maintainer's deletion baseline. Snapshots are written to a temp
//     directory, fsynced, renamed into place, and published by atomically
//     rewriting a CURRENT pointer file — a crash at any instant leaves the
//     previous snapshot intact.
//
//   - An append-only WAL whose record unit is exactly one ApplyUpdate
//     batch (deletes + inserts). Records are length-prefixed and CRC32C
//     checksummed; the tail may be torn by a crash and is truncated at the
//     next open. A batch is logged and fsynced after the maintainer
//     applies it but before it is published to readers, so recovery
//     (snapshot + replay through Maintainer.ApplyUpdateCtx) reconstructs
//     exactly the batches whose callers were acknowledged.
//
// Open = newest valid snapshot + WAL replay. A snapshot whose view
// fingerprint no longer matches the engine's view definitions is stale:
// its extents are discarded, its base relations (plus the WAL) are
// recovered flat, and the caller re-materializes. Writing a snapshot
// truncates the log; the engine triggers that in the background when the
// log crosses a size threshold, and on graceful shutdown.
//
// Failure policy is fail-stop for writes: if a WAL append or sync fails,
// the store wedges — every later Append and WriteSnapshot returns the
// original error — while the in-memory engine keeps serving reads. The
// unlogged batch was never acknowledged or published, so the on-disk state
// remains a consistent prefix of the acknowledged history.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
)

// Options configures a Store.
type Options struct {
	// NoSync skips the per-append fsync (and snapshot file syncs). Batches
	// then survive a process crash but not a host crash — a deliberate
	// trade for tests and bulk loads.
	NoSync bool
}

const (
	currentFile = "CURRENT"
	manifestFile = "MANIFEST.json"
	walFile      = "wal.log"
)

var snapDirName = regexp.MustCompile(`^snap-(\d{8})$`)

// Store is one engine's durable state: the current snapshot and the
// append-only log of batches applied since it was taken. Single-writer:
// Append and WriteSnapshot must be serialized by the caller (the engine
// holds its update mutex); an internal mutex makes the read-side accessors
// safe from any goroutine.
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	wal     *wal
	man     *Manifest
	snapDir string // directory name of the current snapshot ("" if none)
	seq     uint64 // sequence number of the current snapshot
	lsn     uint64 // last durable LSN (snapshot or WAL record)
	failed  error  // first write failure; wedges all later writes

	walAppends    uint64
	walAppendTime time.Duration
	snapshots     uint64
	snapshotTime  time.Duration
	snapshotBytes int64
}

// Stats reports a store's position and lifetime write work.
type Stats struct {
	// LSN is the last durable log position.
	LSN uint64
	// WALBytes is the current size of the log file.
	WALBytes int64
	// WALAppends counts records appended by this process.
	WALAppends uint64
	// WALAppendTime is the cumulative wall time of appends (including fsync).
	WALAppendTime time.Duration
	// Snapshots counts snapshots written by this process.
	Snapshots uint64
	// SnapshotTime is the cumulative wall time of snapshot writes.
	SnapshotTime time.Duration
	// SnapshotBytes is the byte size of the most recent snapshot.
	SnapshotBytes int64
	// SnapshotLSN is the log position of the current snapshot.
	SnapshotLSN uint64
	// Failed reports the fail-stop state: a write failed and all further
	// mutations are refused.
	Failed bool
}

// Open attaches to (or initializes) the durable state under dir: it reads
// the CURRENT pointer, validates the manifest it names, removes leftover
// temporary or superseded snapshot directories, and scans the WAL,
// truncating any torn tail. The returned store holds the intact records
// for Replay.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dir: dir, opt: opt}
	cur, err := os.ReadFile(filepath.Join(dir, currentFile))
	switch {
	case err == nil:
		name := strings.TrimSpace(string(cur))
		m := snapDirName.FindStringSubmatch(name)
		if m == nil {
			return nil, fmt.Errorf("durable: CURRENT names %q, not a snapshot directory", name)
		}
		data, err := os.ReadFile(filepath.Join(dir, name, manifestFile))
		if err != nil {
			return nil, fmt.Errorf("durable: current snapshot %s: %w", name, err)
		}
		man, err := decodeManifest(data)
		if err != nil {
			return nil, fmt.Errorf("durable: current snapshot %s: %w", name, err)
		}
		s.man, s.snapDir = man, name
		s.seq, _ = strconv.ParseUint(m[1], 10, 64)
		s.lsn = man.LSN
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory: no snapshot yet.
	default:
		return nil, fmt.Errorf("durable: %w", err)
	}
	// Sweep snapshot directories the CURRENT pointer does not reference:
	// temp dirs from a crashed snapshot write, or superseded snapshots
	// whose removal was interrupted.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == s.snapDir {
			continue
		}
		if snapDirName.MatchString(e.Name()) || strings.HasSuffix(e.Name(), ".tmp") {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	w, err := openWAL(filepath.Join(dir, walFile), opt.NoSync)
	if err != nil {
		return nil, err
	}
	s.wal = w
	// Records at or below the snapshot LSN are already captured by it (a
	// crash between publishing a snapshot and truncating the log leaves
	// them behind); drop them from replay.
	if s.man != nil {
		recs := w.recs[:0]
		for _, r := range w.recs {
			if r.lsn > s.man.LSN {
				recs = append(recs, r)
			}
		}
		w.recs = recs
	}
	if len(w.recs) > 0 {
		if s.man == nil {
			w.close()
			return nil, fmt.Errorf("durable: %s holds %d log records but no snapshot — the snapshot directories were removed out from under the log", dir, len(w.recs))
		}
		s.lsn = w.recs[len(w.recs)-1].lsn
	}
	return s, nil
}

// Manifest returns the current snapshot's manifest, or nil when the
// directory holds no snapshot yet. Read-only.
func (s *Store) Manifest() *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man
}

// PendingRecords reports how many intact WAL records await Replay.
func (s *Store) PendingRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0
	}
	return len(s.wal.recs)
}

// Replay decodes every intact WAL record past the current snapshot, in
// commit order, and hands each to fn. It returns the number of records
// applied; an error from decoding or from fn stops the replay. The parsed
// records are released afterwards.
func (s *Store) Replay(fn func(Record) error) (int, error) {
	s.mu.Lock()
	var recs []walRec
	if s.wal != nil {
		recs = s.wal.recs
		s.wal.recs = nil
	}
	s.mu.Unlock()
	for i, r := range recs {
		rec, err := decodeRecordPayload(r.payload)
		if err != nil {
			return i, fmt.Errorf("durable: wal record %d (lsn %d): %w", i, r.lsn, err)
		}
		if err := fn(rec); err != nil {
			return i, fmt.Errorf("durable: replay record %d (lsn %d): %w", i, r.lsn, err)
		}
	}
	return len(recs), nil
}

// RecoverBaseFacts rebuilds just the base relations — the snapshot's
// non-extent segments with every WAL batch applied flat (deletes before
// inserts, no view maintenance). This is the stale-snapshot path: the view
// definitions changed, the extents are worthless, but the base facts are
// still the authoritative data to re-materialize from.
func (s *Store) RecoverBaseFacts() (*storage.Database, error) {
	s.mu.Lock()
	man, snapDir := s.man, s.snapDir
	var recs []walRec
	if s.wal != nil {
		recs = s.wal.recs
		s.wal.recs = nil
	}
	s.mu.Unlock()
	db := storage.NewDatabase()
	if man != nil {
		for _, rm := range man.Relations {
			if rm.Extent {
				continue
			}
			tuples, err := s.loadSegment(snapDir, rm)
			if err != nil {
				return nil, err
			}
			rel, err := db.Ensure(rm.Name, rm.Arity)
			if err != nil {
				return nil, fmt.Errorf("durable: %w", err)
			}
			for _, t := range tuples {
				rel.Insert(t)
			}
		}
	}
	for i, r := range recs {
		rec, err := decodeRecordPayload(r.payload)
		if err != nil {
			return nil, fmt.Errorf("durable: wal record %d (lsn %d): %w", i, r.lsn, err)
		}
		for pred, tuples := range rec.Deletes {
			for _, t := range tuples {
				db.Remove(pred, t)
			}
		}
		for pred, tuples := range rec.Inserts {
			for _, t := range tuples {
				if err := db.Insert(pred, t); err != nil {
					return nil, fmt.Errorf("durable: wal record %d: %w", i, err)
				}
			}
		}
	}
	return db, nil
}

// Append logs one update batch — the ApplyUpdateCtx unit, deletes applied
// before inserts — and syncs it, returning its LSN. Call it after the
// maintainer accepted the batch and before publishing to readers. On an
// IO failure the store wedges (fail-stop): the error is returned now and
// by every later Append.
func (s *Store) Append(deletes, inserts map[string][]storage.Tuple) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, s.failed
	}
	if s.wal == nil {
		return 0, fmt.Errorf("durable: store is closed")
	}
	lsn := s.lsn + 1
	start := time.Now()
	if err := s.wal.append(encodeRecordPayload(lsn, deletes, inserts)); err != nil {
		s.failed = err
		return 0, err
	}
	s.lsn = lsn
	s.walAppends++
	s.walAppendTime += time.Since(start)
	return lsn, nil
}

// Dirty reports whether the WAL holds batches the current snapshot does
// not cover (a checkpoint at shutdown would not be redundant).
func (s *Store) Dirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return false
	}
	return s.wal.size > int64(len(walMagic)) || s.man == nil
}

// WALBytes returns the current size of the log file.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0
	}
	return s.wal.size
}

// LSN returns the last durable log position.
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// Err returns the wedging write failure, or nil while the store is
// healthy.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		LSN:           s.lsn,
		WALAppends:    s.walAppends,
		WALAppendTime: s.walAppendTime,
		Snapshots:     s.snapshots,
		SnapshotTime:  s.snapshotTime,
		SnapshotBytes: s.snapshotBytes,
		Failed:        s.failed != nil,
	}
	if s.wal != nil {
		st.WALBytes = s.wal.size
	}
	if s.man != nil {
		st.SnapshotLSN = s.man.LSN
	}
	return st
}

// Close syncs and closes the log. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}
