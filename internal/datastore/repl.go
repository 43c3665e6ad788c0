package datastore

// Replication log surface. The CRC-checksummed journal doubles as a
// replication log: every mutation carries a store-wide generation minted
// in journal order, so a follower can catch up by pulling exactly the
// framed journal lines past its last applied generation and appending
// the same bytes to its own journal — one checksum protects the record
// from the primary's disk to the follower's.
//
// Two store flavors share the bookkeeping:
//
//   - Durable stores tail the journal file itself. The snapshot meta
//     record tracks the log floor ("base"): generations at or below it
//     have been folded into the snapshot and are only available via a
//     full state copy (ErrReplGap).
//   - Memory stores (cluster tests, ephemeral nodes) keep a bounded
//     in-memory ring of framed lines, enabled via EnableReplication;
//     eviction moves the floor just like snapshot rotation does.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"matproj/internal/document"
)

// ErrReplGap reports that the requested generation has rotated out of
// the log (snapshotted away or evicted from the ring); the follower must
// fall back to a full state copy (ReplSnapshot + ReplReset).
var ErrReplGap = errors.New("datastore: replication gap: generation rotated out of the log")

// DefaultReplRingCapacity bounds the in-memory replication ring when
// EnableReplication is called with a non-positive capacity.
const DefaultReplRingCapacity = 16384

// replState is the store-wide replication bookkeeping: the last minted/
// applied generation, the log floor, and (memory stores only) the entry
// ring. Its mutex is leaf-level: nothing is called while it is held.
type replState struct {
	mu      sync.Mutex
	enabled bool // ring recording on (memory stores)
	seq     uint64
	base    uint64
	cap     int
	ring    []replEntry
}

type replEntry struct {
	gen  uint64
	line []byte // framed "%08x <json>", no trailing newline
}

// next mints the following generation.
func (rs *replState) next() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.seq++
	return rs.seq
}

// current reports the last minted/applied generation.
func (rs *replState) current() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.seq
}

// observe advances seq to at least gen (replay / replicated applies).
func (rs *replState) observe(gen uint64) {
	rs.mu.Lock()
	if gen > rs.seq {
		rs.seq = gen
	}
	rs.mu.Unlock()
}

// observeBase advances the log floor (and seq) to at least gen.
func (rs *replState) observeBase(gen uint64) {
	rs.mu.Lock()
	if gen > rs.base {
		rs.base = gen
	}
	if gen > rs.seq {
		rs.seq = gen
	}
	rs.mu.Unlock()
}

// setBase moves the floor after a snapshot rotation.
func (rs *replState) setBase(gen uint64) {
	rs.observeBase(gen)
}

// enable turns on ring recording (memory stores).
func (rs *replState) enable(capacity int) {
	if capacity <= 0 {
		capacity = DefaultReplRingCapacity
	}
	rs.mu.Lock()
	rs.enabled = true
	rs.cap = capacity
	rs.mu.Unlock()
}

// record mints a generation for one local mutation and stores its framed
// line in the ring. No-op unless enabled.
func (rs *replState) record(coll string, op journalOp, id string, doc document.D) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.enabled {
		return
	}
	line, err := appendWriteHead(nil, coll, op, id, doc)
	if err != nil {
		return
	}
	rs.seq++
	line = appendRecordTail(line, rs.seq)
	putChecksum(line, crc32.Checksum(line[len(frameGap):], crcTable))
	rs.appendRingLocked(rs.seq, line)
}

// recordRaw stores an already-framed replicated line in the ring so a
// caught-up memory follower can itself serve as a catch-up source.
func (rs *replState) recordRaw(gen uint64, line []byte) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.enabled {
		return
	}
	rs.appendRingLocked(gen, line)
}

func (rs *replState) appendRingLocked(gen uint64, line []byte) {
	rs.ring = append(rs.ring, replEntry{gen: gen, line: line})
	for len(rs.ring) > rs.cap {
		rs.base = rs.ring[0].gen
		rs.ring = rs.ring[1:]
	}
}

// tail returns up to max framed ring entries with generation > from.
func (rs *replState) tail(from uint64, max int) ([][]byte, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if from < rs.base {
		return nil, fmt.Errorf("%w: from=%d base=%d", ErrReplGap, from, rs.base)
	}
	var out [][]byte
	for _, e := range rs.ring {
		if e.gen <= from {
			continue
		}
		out = append(out, e.line)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out, nil
}

// EnableReplication turns the store into a replication log source/sink.
// Durable stores always mint generations (the journal is the log); this
// call additionally equips memory stores with a bounded in-memory ring
// of the most recent capacity entries (<=0 selects the default). Safe to
// call once before traffic.
func (s *Store) EnableReplication(capacity int) {
	if s.journal.Load() != nil {
		return // journal-backed: log already live
	}
	s.repl.enable(capacity)
}

// ReplGen reports the store's last minted/applied replication generation.
func (s *Store) ReplGen() uint64 {
	return s.repl.current()
}

// ReplTail returns up to max framed log lines with generation > from,
// plus the current head generation. Lines are CRC-framed exactly as
// journaled ("%08x <json>", no newline) — the caller ships the bytes
// verbatim and the follower re-verifies the checksum before applying.
// A torn journal tail silently ends the batch (the good prefix is
// served); ErrReplGap means from has rotated out of the log.
func (s *Store) ReplTail(from uint64, max int) ([][]byte, uint64, error) {
	head := s.repl.current()
	j := s.journal.Load()
	if j == nil {
		lines, err := s.repl.tail(from, max)
		return lines, head, err
	}
	// Durable path: check the floor, then scan the journal file. The
	// group-commit path flushes per batch, so the file may trail head by
	// at most the in-flight batch; a line being written concurrently
	// fails its checksum and ends the scan (the caller simply pulls
	// again).
	s.repl.mu.Lock()
	base := s.repl.base
	s.repl.mu.Unlock()
	if from < base {
		return nil, head, fmt.Errorf("%w: from=%d base=%d", ErrReplGap, from, base)
	}
	f, err := os.Open(journalPath(j.dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, head, nil
		}
		return nil, head, fmt.Errorf("datastore: repl tail: %w", err)
	}
	defer f.Close()
	var out [][]byte
	var ps document.Parser
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		raw, rerr := r.ReadBytes('\n')
		data := bytes.TrimSuffix(raw, []byte("\n"))
		if len(data) > 0 {
			rec, derr := decodeRecord(&ps, data)
			if derr != nil {
				break // torn tail (or mid-append): serve the good prefix
			}
			if rec.Op != journalMeta && rec.Gen > from {
				line := make([]byte, len(data))
				copy(line, data)
				out = append(out, line)
				if max > 0 && len(out) >= max {
					break
				}
			}
		}
		if rerr != nil {
			break
		}
	}
	return out, head, nil
}

// ApplyReplEntries verifies and applies framed log lines shipped from a
// peer, journaling each locally. It applies the longest good prefix: a
// line failing its checksum or decode stops the batch and reports
// torn=true, and the caller re-pulls from the returned generation —
// truncate-and-resync, never apply a corrupt entry. Returns the number
// of lines applied and the store's resulting generation.
func (s *Store) ApplyReplEntries(lines [][]byte) (applied int, gen uint64, torn bool, err error) {
	j := s.journal.Load()
	// Replicated lines are staged as they apply and committed once at
	// the end of the batch — the whole shipment rides one group fsync.
	var last *commitTicket
	finish := func(applied int, torn bool, err error) (int, uint64, bool, error) {
		if j != nil {
			if cerr := j.commit(last); cerr != nil && err == nil {
				err = fmt.Errorf("datastore: repl apply journal: %w", cerr)
			}
		}
		return applied, s.repl.current(), torn, err
	}
	var ps document.Parser
	for _, line := range lines {
		rec, derr := decodeRecord(&ps, line)
		if derr != nil {
			return finish(applied, true, nil)
		}
		if rec.Op == journalMeta {
			continue
		}
		if aerr := applyRecord(s, rec); aerr != nil {
			return finish(applied, false, fmt.Errorf("datastore: repl apply: %w", aerr))
		}
		if j != nil {
			last = j.stageRaw(line)
		} else {
			s.repl.recordRaw(rec.Gen, line)
		}
		applied++
	}
	return finish(applied, false, nil)
}

// ReplSnapshotEntries serializes the store's full current state as
// framed insert lines (one per document, plus drop-free collection
// bounds are implicit), for shipping to a follower whose generation has
// rotated out of the log. The head generation returned was read before
// the state scan, so state is a superset of head — re-applied log
// entries past head are idempotent.
func (s *Store) ReplSnapshotEntries() ([][]byte, uint64, error) {
	head := s.repl.current()
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()
	var out [][]byte
	for _, c := range colls {
		c.mu.RLock()
		// Index definitions first, mirroring the on-disk snapshot layout:
		// the follower re-creates each index before any documents arrive,
		// so its indexes are maintained incrementally from the same
		// stream that builds its data.
		for _, rec := range c.indexDefRecordsLocked() {
			out = append(out, appendFrame(nil, rec))
		}
		var doc []byte
		for _, slot := range c.order {
			if slot.dead {
				continue
			}
			id := slot.id
			var err error
			if doc, err = document.AppendJSON(doc[:0], map[string]any(c.docs[id])); err != nil {
				c.mu.RUnlock()
				return nil, head, fmt.Errorf("datastore: repl snapshot encode: %w", err)
			}
			out = append(out, appendFrame(nil, journalRecord{Op: journalInsert, Collection: c.name, ID: id, Doc: doc}))
		}
		c.mu.RUnlock()
	}
	return out, head, nil
}

// ReplReset replaces the store's entire state with the shipped snapshot
// lines and fast-forwards the replication position to upto. Durable
// stores immediately rewrite their on-disk snapshot (and truncate the
// journal) so a restart replays the new state, not the pre-reset one.
func (s *Store) ReplReset(lines [][]byte, upto uint64) error {
	s.mu.Lock()
	s.collections = make(map[string]*Collection)
	s.mu.Unlock()
	var ps document.Parser
	for _, line := range lines {
		rec, derr := decodeRecord(&ps, line)
		if derr != nil {
			return fmt.Errorf("datastore: repl reset: corrupt snapshot line: %w", derr)
		}
		if rec.Op == journalMeta {
			continue
		}
		if err := applyRecord(s, rec); err != nil {
			return fmt.Errorf("datastore: repl reset: %w", err)
		}
	}
	s.repl.mu.Lock()
	s.repl.seq = upto
	s.repl.base = upto
	s.repl.ring = nil
	s.repl.mu.Unlock()
	if j := s.journal.Load(); j != nil {
		if err := j.snapshot(s); err != nil {
			return fmt.Errorf("datastore: repl reset snapshot: %w", err)
		}
	}
	return nil
}
