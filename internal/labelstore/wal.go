package labelstore

import (
	"encoding/binary"
	"fmt"
	"sync"

	"supg/internal/durable"
)

// The write-ahead log makes paid oracle labels crash-durable: every
// label written through a Cache is appended (and fsync'd per the sync
// policy) to an append-only file, and Open replays the file into the
// in-memory shards on boot — a restarted server recovers every label
// it ever bought with zero oracle re-buys.
//
// The file is a durable.Log (framing, torn-tail truncation, atomic
// rewrite) with walFormat's IEEE CRC and 1 MiB frame bound. Each frame
// payload starts with a one-byte record type:
//
//	recCacheDef   assigns a numeric id to a (table, oracle) pair;
//	              labels reference the id instead of repeating strings
//	recLabel      one bought label: (cache id, record index, label)
//	recTombTable  invalidation tombstone: every cache of the table
//	              (and every earlier label of it) is dead
//	recTombOracle invalidation tombstone for an oracle UDF
//
// Replay applies records in order: tombstones kill the caches (and
// ids) defined before them, so labels bought against a superseded
// registration can never resurrect. A structurally invalid record ends
// replay like a torn frame does.
const (
	recCacheDef   byte = 1
	recLabel      byte = 2
	recTombTable  byte = 3
	recTombOracle byte = 4
)

// walFormat is the WAL's framing. The frame bound treats anything
// larger as corruption (the largest legitimate payload is a cache-def
// with two names).
var walFormat = durable.Format{CRC: durable.IEEE, MaxFrame: 1 << 20}

// walCompactMinRecords is the auto-compaction floor: Open rewrites the
// log only when it holds more than this many frames and more than half
// of them are dead (tombstoned or superseded).
const walCompactMinRecords = 1024

// wal is the append side of the write-ahead log. All appends are
// serialized under mu; the store's in-memory insert happens first, so
// the log is an ordered journal of every label the memory tier
// accepted. Append failures are fail-stop (see durable.Log): the first
// error disables further appends and surfaces from Close.
type wal struct {
	store *Store

	mu     sync.Mutex
	log    *durable.Log
	ids    map[*Cache]uint64
	nextID uint64
	buf    []byte // record scratch, reused under mu
}

// openWAL opens (creating if absent) the log at path, replays it into
// s, truncates any torn tail, and returns the append handle plus the
// number of labels replayed.
func openWAL(s *Store, path string, syncEvery int) (*wal, int64, error) {
	w := &wal{store: s, ids: make(map[*Cache]uint64), nextID: 1}
	var (
		replayed int64
		liveID   = make(map[uint64]*Cache)
	)
	log, err := durable.Open(path, walFormat, syncEvery, func(payload []byte) bool {
		return w.apply(payload, liveID, &replayed)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("labelstore: open wal: %w", err)
	}
	w.log = log
	// Adopt the surviving id assignments for the append side, so new
	// labels of an already-defined cache need no fresh def record.
	for id, c := range liveID {
		if !c.dead.Load() {
			w.ids[c] = id
		}
		if id >= w.nextID {
			w.nextID = id + 1
		}
	}
	return w, replayed, nil
}

// apply folds one replayed record into the store. Reports whether the
// record was structurally valid.
func (w *wal) apply(payload []byte, liveID map[uint64]*Cache, replayed *int64) bool {
	s := w.store
	d := durable.NewDecoder(payload[1:])
	switch payload[0] {
	case recCacheDef:
		id, table, oracle := d.Uvarint(), d.Str(), d.Str()
		if d.Finish("cache-def") != nil {
			return false
		}
		liveID[id] = s.Cache(table, oracle)
	case recLabel:
		// The label is one byte, 0 or 1: a one-byte uvarint.
		id, idx, v := d.Uvarint(), d.Uvarint(), d.Uvarint()
		if d.Finish("label") != nil {
			return false
		}
		if c := liveID[id]; c != nil {
			// A label referencing a tombstoned (dead) cache is silently
			// dropped by put's dead check — exactly the in-memory
			// semantics of a stale write. Duplicates (possible after a
			// compaction raced an insert) are dropped the same way.
			if c.put(int(idx), v != 0, false) {
				*replayed++
			}
		}
	case recTombTable, recTombOracle:
		name := d.Str()
		if d.Finish("tombstone") != nil {
			return false
		}
		if payload[0] == recTombTable {
			s.invalidateMatch(func(k Key) bool { return k.Table == name }, false)
		} else {
			s.invalidateMatch(func(k Key) bool { return k.Oracle == name }, false)
		}
	default:
		return false
	}
	return true
}

// appendLabel journals one freshly-bought label, writing the cache's
// def record first if this is its first label. Nil-safe.
func (w *wal) appendLabel(c *Cache, i int, v bool) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// An insert that raced an invalidation may reach here after the
	// tombstone was journaled (kill sets dead before the tombstone
	// append). Logging it would resurrect the label under a fresh def on
	// replay, so it is dropped — matching the memory tier, where kill
	// clears the entry the racing insert produced.
	if c.dead.Load() {
		return
	}
	id, ok := w.ids[c]
	if !ok {
		id = w.nextID
		w.nextID++
		w.ids[c] = id
		if !w.appendLocked(appendCacheDef(w.buf[:0], id, c.key)) {
			return
		}
	}
	w.appendLocked(appendLabelRec(w.buf[:0], id, i, v))
}

// appendTombstone journals an invalidation (kind is recTombTable or
// recTombOracle) and drops the id assignments of the caches it killed,
// so their memory is reclaimable and later labels of a re-created
// cache get a fresh def. Nil-safe.
func (w *wal) appendTombstone(kind byte, name string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for c := range w.ids {
		if c.dead.Load() {
			delete(w.ids, c)
		}
	}
	w.appendLocked(durable.AppendString(append(w.buf[:0], kind), name))
}

// appendLocked appends one record, keeping rec as the next scratch
// buffer, and counts it. Reports success; a write failure is sticky in
// the log and surfaces from close, and appends after close are
// dropped. Callers hold w.mu.
func (w *wal) appendLocked(rec []byte) bool {
	w.buf = rec
	if w.log.Append(rec) != nil {
		return false
	}
	w.store.counters.Load().WALRecords(1)
	return true
}

func appendCacheDef(b []byte, id uint64, k Key) []byte {
	b = binary.AppendUvarint(append(b, recCacheDef), id)
	b = durable.AppendString(b, k.Table)
	return durable.AppendString(b, k.Oracle)
}

func appendLabelRec(b []byte, id uint64, i int, v bool) []byte {
	b = binary.AppendUvarint(append(b, recLabel), id)
	b = binary.AppendUvarint(b, uint64(i))
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// compactLocked rewrites the log to hold only the live labels: a fresh
// def per live cache plus its current entries (see durable.Log.Rewrite).
// Callers hold w.mu (appends are blocked for the duration; in-memory
// reads and writes are not — a label inserted mid-compaction is either
// snapshotted into the new file or journaled right after it, possibly
// both, and replay is idempotent).
func (w *wal) compactLocked() error {
	s := w.store
	s.mu.RLock()
	caches := make([]*Cache, 0, len(s.caches))
	for _, c := range s.caches {
		caches = append(caches, c)
	}
	s.mu.RUnlock()

	ids := make(map[*Cache]uint64)
	nextID := uint64(1)
	err := w.log.Rewrite(func(write func([]byte) error) error {
		var rec []byte
		for _, c := range caches {
			if c.dead.Load() {
				continue
			}
			var id uint64
			for si := range c.shards {
				sh := &c.shards[si]
				sh.mu.Lock()
				snap := make(map[int]bool, len(sh.m))
				for k, v := range sh.m {
					snap[k] = v
				}
				sh.mu.Unlock()
				for k, v := range snap {
					if id == 0 {
						id = nextID
						nextID++
						ids[c] = id
						rec = appendCacheDef(rec[:0], id, c.key)
						if err := write(rec); err != nil {
							return err
						}
					}
					rec = appendLabelRec(rec[:0], id, k, v)
					if err := write(rec); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("labelstore: wal compact: %w", err)
	}
	w.ids = ids
	w.nextID = nextID
	return nil
}

// close flushes, syncs, and closes the log. Idempotent; returns the
// first append error if one was recorded.
func (w *wal) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.log.Close(); err != nil {
		return fmt.Errorf("labelstore: wal: %w", err)
	}
	return nil
}

// recordCount returns the number of frames currently in the file.
func (w *wal) recordCount() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Frames()
}
