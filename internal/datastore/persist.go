package datastore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"matproj/internal/document"
	"matproj/internal/obs"
)

// Durability: the store appends every write to a checksummed JSON-lines
// journal through a group-commit queue — mutators stage framed records
// while holding their collection's write lock (so journal order matches
// apply order), and a leader caller drains the queue in batches, making
// each batch durable with a single fsync before acknowledging every
// record it covers. A snapshot atomically rewrites the full contents of
// every collection into a snapshot file (write-temp, fsync, rename) and
// truncates the journal; on open, the snapshot is loaded and the journal
// replayed on top.
//
//lint:file-ignore lockheld the journal mutex exists to serialize file I/O: batches must reach the file in acknowledge order, so the critical section intentionally spans the write and fsync
//
// Crash safety. Each journal line carries a CRC32-C of its payload
// ("%08x <json>\n"), so a write torn by a crash — a partial line, a
// missing newline, a line whose checksum does not match — is detected on
// replay. A torn *tail* (one or more bad lines with no valid record
// after them) is the expected signature of a crash mid-append: replay
// truncates the journal back to the last valid record, records what was
// dropped in RecoveryStats, and the store opens normally. Corruption in
// the *middle* of the journal (valid records after a bad line) cannot be
// explained by a torn final write and is reported as an error rather
// than silently dropping acknowledged history. Lines beginning with '{'
// are accepted without a checksum for compatibility with journals
// written before checksumming.

type journalOp string

const (
	journalInsert journalOp = "i"
	journalUpdate journalOp = "u"
	journalRemove journalOp = "r"
	journalDrop   journalOp = "d"
	// journalIndex / journalIndexDrop record index definitions so crash
	// recovery and replica catch-up rebuild them. The record's ID is the
	// index name; Doc carries the definition payload (see indexDef). The
	// indexed data itself is never journaled — replay re-creates the
	// definition and backfills from the documents.
	journalIndex     journalOp = "x"
	journalIndexDrop journalOp = "X"
	// journalMeta carries replication bookkeeping, not data: the first
	// line of every snapshot records the replication generation the
	// snapshot covers, so replay can restore the log's floor.
	journalMeta journalOp = "m"
)

// journalRecord is one journal line. The struct tags are the format's
// specification: appendRecord writes exactly the bytes json.Marshal
// writes for the struct. Writers set Doc to the document codec's
// encoding (ToJSON), which json.Marshal would copy unchanged;
// parseRecord reads a line back and sets doc instead.
type journalRecord struct {
	Op         journalOp       `json:"op"`
	Collection string          `json:"c,omitempty"`
	ID         string          `json:"id,omitempty"`
	Doc        json.RawMessage `json:"doc,omitempty"`
	// Gen is the store-wide replication generation of this mutation.
	// Gens are minted under the journal mutex, so journal file order is
	// generation order. Zero on legacy (pre-replication) records.
	Gen uint64 `json:"g,omitempty"`

	// doc is the parsed document of a record read back (nil when the
	// line has none).
	doc document.D
}

// appendRecordHead appends rec's JSON encoding up to, not including, its
// generation and closing brace; appendRecordTail finishes it. The split
// lets enqueue frame everything but the generation before it mints one.
func appendRecordHead(dst []byte, rec journalRecord) []byte {
	dst = append(dst, `{"op":`...)
	dst = document.AppendString(dst, string(rec.Op))
	if rec.Collection != "" {
		dst = append(dst, `,"c":`...)
		dst = document.AppendString(dst, rec.Collection)
	}
	if rec.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = document.AppendString(dst, rec.ID)
	}
	if len(rec.Doc) > 0 {
		dst = append(dst, `,"doc":`...)
		dst = append(dst, rec.Doc...)
	}
	return dst
}

func appendRecordTail(dst []byte, gen uint64) []byte {
	if gen != 0 {
		dst = append(dst, `,"g":`...)
		dst = strconv.AppendUint(dst, gen, 10)
	}
	return append(dst, '}')
}

// appendRecord appends rec's JSON encoding.
func appendRecord(dst []byte, rec journalRecord) []byte {
	return appendRecordTail(appendRecordHead(dst, rec), rec.Gen)
}

// appendFrame appends rec as one checksum-framed journal line,
// "%08x <json>" without the newline, in a single pass: the record is
// appended behind a placeholder checksum that is then filled in.
func appendFrame(dst []byte, rec journalRecord) []byte {
	start := len(dst)
	dst = append(dst, frameGap...)
	dst = appendRecord(dst, rec)
	putChecksum(dst[start:], crc32.Checksum(dst[start+len(frameGap):], crcTable))
	return dst
}

// frameGap is the checksum field's placeholder: eight hex digits and a
// space.
const frameGap = "00000000 "

// putChecksum writes crc as the eight lowercase hex digits that open a
// frame.
func putChecksum(frame []byte, crc uint32) {
	const hex = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		frame[i] = hex[crc&0xf]
		crc >>= 4
	}
}

// parseRecord decodes one journal payload with the document codec, so
// the record's document comes back as a normalized tree in one pass.
// Callers parsing many records share one Parser, so the documents they
// load share their key strings.
// Fields of the wrong JSON type make the line invalid, and so does a
// generation beyond int64 (the codec's integer range; stores mint one
// generation per write and never get there).
func parseRecord(ps *document.Parser, payload []byte) (journalRecord, error) {
	v, err := ps.Parse(payload)
	if err != nil {
		return journalRecord{}, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return journalRecord{}, fmt.Errorf("datastore: journal record is not an object")
	}
	bad := ""
	str := func(k string) string {
		s, ok := m[k].(string)
		if !ok && m[k] != nil {
			bad = k
		}
		return s
	}
	rec := journalRecord{Op: journalOp(str("op")), Collection: str("c"), ID: str("id")}
	switch x := m["doc"].(type) {
	case map[string]any:
		rec.doc = x
	case nil:
	default:
		bad = "doc"
	}
	switch x := m["g"].(type) {
	case int64:
		if x < 0 {
			bad = "g"
		}
		rec.Gen = uint64(x)
	case nil:
	default:
		bad = "g"
	}
	if bad != "" {
		return journalRecord{}, fmt.Errorf("datastore: journal record field %q has the wrong type", bad)
	}
	return rec, nil
}

// indexDef is the Doc payload of journalIndex / journalIndexDrop
// records. Writers emit {"ordered": true, "paths": [...]} definitions
// and {"ordered": true, "name": n} drops. Path is read only from older
// journals, whose single-path {"path": p} records replay as one-path
// indexes.
type indexDef struct {
	Path  string   `json:"path,omitempty"`
	Paths []string `json:"paths,omitempty"`
}

// indexDefRecordsLocked renders the collection's index definitions as
// journal records, sorted by name for deterministic snapshots. Caller
// holds c.mu.
func (c *Collection) indexDefRecordsLocked() []journalRecord {
	var out []journalRecord
	for _, n := range c.indexNamesLocked() {
		b, err := indexDefDoc(c.ordered[n].paths).ToJSON()
		if err != nil {
			continue
		}
		out = append(out, journalRecord{Op: journalIndex, Collection: c.name, ID: n, Doc: b})
	}
	return out
}

// JournalFaults lets a fault injector interfere with journal appends.
// Implemented by *faults.Injector; declared here so the storage layer
// stays free of test-harness imports.
type JournalFaults interface {
	// DropAppend reports whether the next append should be silently
	// lost (simulating a crash between acknowledge and write-out).
	DropAppend() bool
	// AppendDelay returns how long the next append should stall.
	AppendDelay() time.Duration
}

type journal struct {
	mu     sync.Mutex
	dir    string
	file   *os.File
	w      *bufio.Writer
	faults JournalFaults
	// werr records the first write/flush/fsync failure. It is sticky:
	// once set, every later commit fails fast (so an acknowledged write
	// can never outlive an earlier lost one) and close() surfaces it — a
	// store shut down after a failed append reports that acknowledged
	// writes may not be durable instead of pretending the journal is
	// intact. Guarded by mu.
	werr error
	// obs, when set, receives append/fsync/snapshot latencies and
	// counters. Guarded by mu like the rest of the journal state.
	obs *obs.Registry
	// repl mints and tracks replication generations for the owning
	// store. Set once before the journal serves appends; the pointer is
	// immutable afterwards (replState has its own mutex).
	repl *replState

	// Group-commit queue. Mutators stage framed records here while
	// holding their collection's write lock (so queue order == apply
	// order), then commit after releasing it. The first committer to
	// find the queue unled becomes the leader: it drains pending frames
	// in batches, writes each batch under j.mu, and makes the whole
	// batch durable with ONE fsync before resolving its tickets. qmu is
	// a leaf mutex ordered after c.mu and before rs.mu; it is never held
	// across I/O (j.mu is taken only with qmu released).
	qmu        sync.Mutex
	pending    []pendingFrame
	committing bool
}

// commitTicket is one staged record's handle on the group commit that
// will cover it. ch closes when the record's batch is durable (or has
// failed); err is valid after ch closes.
type commitTicket struct {
	ch  chan struct{}
	err error
}

// pendingFrame is one framed journal line awaiting its group commit.
type pendingFrame struct {
	line []byte // checksum-framed, newline-terminated
	t    *commitTicket
}

// RecoveryStats describes what replay found when a durable store was
// opened: how much state was recovered and whether the journal tail had
// to be repaired.
type RecoveryStats struct {
	// SnapshotRecords and JournalRecords count the records applied from
	// each file.
	SnapshotRecords int
	JournalRecords  int
	// DroppedRecords counts torn/corrupt trailing lines discarded
	// during repair; TruncatedBytes is how far the journal was cut back.
	DroppedRecords int
	TruncatedBytes int64
	// Repaired is true when a torn journal tail was truncated.
	Repaired bool
}

func journalPath(dir string) string  { return filepath.Join(dir, "journal.ndjson") }
func snapshotPath(dir string) string { return filepath.Join(dir, "snapshot.ndjson") }

// JournalFile returns the path of the journal inside a durable store's
// directory. Exposed for fault-injection harnesses that tear the tail.
func JournalFile(dir string) string { return journalPath(dir) }

// SnapshotFile returns the path of the snapshot inside a durable
// store's directory.
func SnapshotFile(dir string) string { return snapshotPath(dir) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// decodeRecord validates one journal line's frame and parses its record.
func decodeRecord(ps *document.Parser, line []byte) (journalRecord, error) {
	payload, err := decodeLine(line)
	if err != nil {
		return journalRecord{}, err
	}
	return parseRecord(ps, payload)
}

// decodeLine validates and strips the checksum frame. Legacy lines
// beginning with '{' pass through unchecked.
func decodeLine(line []byte) ([]byte, error) {
	if len(line) > 0 && line[0] == '{' {
		return line, nil
	}
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("short or unframed line")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad checksum field: %w", err)
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, crcTable); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// openJournalDir prepares dir but does not open the append handle; that
// happens after replay so a repaired (truncated) journal is not held
// open across the truncation.
func openJournalDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("datastore: create dir: %w", err)
	}
	return nil
}

// openAppend opens the append handle once replay (and any tail repair)
// has finished.
func openAppend(dir string) (*journal, error) {
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("datastore: open journal: %w", err)
	}
	return &journal{dir: dir, file: f, w: bufio.NewWriter(f)}, nil
}

func (j *journal) close() error {
	// Stage/commit pairs normally drain the queue before returning, but
	// a close racing the tail of a commit can still find frames pending;
	// write them out while the file is open so nothing acked is lost.
	j.drain()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return j.werr
	}
	if err := j.w.Flush(); err != nil {
		j.file.Close()
		j.file = nil
		return err
	}
	if err := j.syncTimed(j.file); err != nil {
		j.file.Close()
		j.file = nil
		return err
	}
	err := j.file.Close()
	j.file = nil
	if err == nil {
		err = j.werr
	}
	return err
}

// syncTimed fsyncs f and records the latency when the journal is observed.
func (j *journal) syncTimed(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	j.obs.LatencyHistogram("datastore.journal.fsync_ms").ObserveDuration(time.Since(start))
	return err
}

// enqueue finishes one framed line — frameGap plus the record up to its
// generation — and queues it for the next group commit. Callers invoke
// it while holding the owning collection's write lock, so enqueue order
// — which is also generation order and, because batches drain FIFO,
// journal file order — provably matches in-memory apply order. The
// returned ticket must be handed to commit (after the collection lock is
// released) to make the record durable.
//
// The record is framed once: its head is checksummed outside qmu; under
// qmu the generation is minted, appended and folded into the checksum.
func (j *journal) enqueue(line []byte, op journalOp, gen uint64) *commitTicket {
	crc := crc32.Checksum(line[len(frameGap):], crcTable)
	t := &commitTicket{ch: make(chan struct{})}
	j.qmu.Lock()
	defer j.qmu.Unlock()
	// Mint the generation atomically with enqueueing: a dropped append
	// still mutated memory, so its generation must stay burned —
	// followers detect the hole (head advanced, entry unavailable) and
	// fall back to a snapshot copy instead of believing they are caught
	// up.
	if j.repl != nil && gen == 0 && op != journalMeta {
		gen = j.repl.next()
	}
	head := len(line)
	line = appendRecordTail(line, gen)
	putChecksum(line, crc32.Update(crc, crcTable, line[head:]))
	j.pending = append(j.pending, pendingFrame{line: append(line, '\n'), t: t})
	return t
}

// stageRaw enqueues one pre-framed line (checksum prefix, no trailing
// newline) exactly as received. Used when applying replicated entries:
// the follower's journal carries the primary's bytes — same checksums,
// same generations — so a re-opened follower replays to the same state.
func (j *journal) stageRaw(line []byte) *commitTicket {
	framed := make([]byte, 0, len(line)+1)
	framed = append(framed, line...)
	framed = append(framed, '\n')
	t := &commitTicket{ch: make(chan struct{})}
	j.qmu.Lock()
	j.pending = append(j.pending, pendingFrame{line: framed, t: t})
	j.qmu.Unlock()
	return t
}

// commit makes t's record durable and returns the result of the fsync
// that covered it. The caller either becomes the commit leader (drains
// the queue itself) or, when another caller is already leading, waits
// for that leader to write and sync the batch containing its frame —
// this is the group commit: one fsync acks every record in the batch.
//
// Resolution is guaranteed: a leader only steps down after observing an
// empty queue under qmu, and stage/commit pairs are ordered, so any
// frame staged before commit is either already resolved or will be
// drained by the active leader before it steps down.
func (j *journal) commit(t *commitTicket) error {
	if t == nil {
		return nil
	}
	j.drain()
	<-t.ch
	return t.err
}

// drain takes commit leadership if nobody holds it and writes every
// pending batch. Each iteration swaps out the whole queue as one batch;
// frames staged while a batch is being written form the next batch.
func (j *journal) drain() {
	j.qmu.Lock()
	if j.committing {
		j.qmu.Unlock()
		return
	}
	j.committing = true
	for len(j.pending) > 0 {
		batch := j.pending
		j.pending = nil
		j.qmu.Unlock()
		j.writeBatch(batch)
		j.qmu.Lock()
	}
	j.committing = false
	j.qmu.Unlock()
}

// writeBatch writes one batch of frames under j.mu, makes them durable
// with a single fsync, and resolves every ticket with the outcome. Per
// the sticky-error contract, once werr is set no later frame is written:
// an acknowledged record must never survive a crash that lost an
// earlier acknowledged one.
func (j *journal) writeBatch(batch []pendingFrame) {
	j.mu.Lock()
	if j.file == nil {
		// Journal detached (store closed / memory store): resolve with
		// whatever terminal state close() recorded.
		err := j.werr
		j.mu.Unlock()
		for _, f := range batch {
			f.t.err = err
			close(f.t.ch)
		}
		return
	}
	start := time.Now()
	wrote := 0
	for _, f := range batch {
		if j.werr != nil {
			break
		}
		if j.faults != nil {
			if d := j.faults.AppendDelay(); d > 0 {
				//lint:ignore clockdiscipline the injected append stall simulates a slow disk; real elapsed time is the point
				time.Sleep(d)
			}
			if j.faults.DropAppend() {
				// Simulates loss between acknowledge and write-out: the
				// record's ticket still resolves OK, but the bytes never
				// reach the file.
				j.obs.Counter("datastore.journal.dropped_appends").Inc()
				continue
			}
		}
		if _, err := j.w.Write(f.line); err != nil {
			j.recordWriteErrLocked(err)
			break
		}
		wrote++
	}
	if j.werr == nil && wrote > 0 {
		if err := j.w.Flush(); err != nil {
			j.recordWriteErrLocked(err)
		} else if err := j.syncTimed(j.file); err != nil {
			j.recordWriteErrLocked(err)
		}
	}
	err := j.werr
	j.obs.Counter("datastore.journal.appends").Add(uint64(wrote))
	j.obs.Counter("datastore.journal.commits").Inc()
	if len(batch) > 1 {
		j.obs.Counter("datastore.journal.group_commits").Inc()
		j.obs.Counter("datastore.journal.group_committed_records").Add(uint64(len(batch)))
	}
	j.obs.LatencyHistogram("datastore.journal.commit_ms").ObserveDuration(time.Since(start))
	j.mu.Unlock()
	for _, f := range batch {
		f.t.err = err
		close(f.t.ch)
	}
}

// recordWriteErrLocked notes a failed append so close() can surface it.
// Callers hold j.mu.
func (j *journal) recordWriteErrLocked(err error) {
	if j.werr == nil {
		j.werr = fmt.Errorf("datastore: journal append: %w", err)
	}
	j.obs.Counter("datastore.journal.append_errors").Inc()
}

// stageWrite frames one mutation record for the group commit. Callers
// hold the owning collection's write lock; see enqueue. A document that
// cannot be encoded yields a ticket already failed with that error, so
// the write is never acknowledged without its record.
func (j *journal) stageWrite(coll string, op journalOp, id string, doc document.D) *commitTicket {
	// 1 KiB holds a typical record; larger documents grow the line.
	line, err := appendWriteHead(make([]byte, 0, 1024), coll, op, id, doc)
	if err != nil {
		return failedTicket(fmt.Errorf("datastore: journal %s/%s: %w", coll, id, err))
	}
	return j.enqueue(line, op, 0)
}

// appendWriteHead appends frameGap and one mutation's record up to its
// generation, encoding doc (when non-nil) straight into the line.
func appendWriteHead(dst []byte, coll string, op journalOp, id string, doc document.D) ([]byte, error) {
	dst = appendRecordHead(append(dst, frameGap...), journalRecord{Op: op, Collection: coll, ID: id})
	if doc == nil {
		return dst, nil
	}
	return document.AppendJSON(append(dst, `,"doc":`...), map[string]any(doc))
}

// failedTicket is a commit ticket resolved with err before any write.
func failedTicket(err error) *commitTicket {
	t := &commitTicket{ch: make(chan struct{}), err: err}
	close(t.ch)
	return t
}

func (j *journal) logDrop(coll string) {
	_ = j.commit(j.stageWrite(coll, journalDrop, "", nil))
}

// replay loads the snapshot then re-applies the journal into s. Called
// before s.journal is set, so replayed writes are not re-journaled. The
// snapshot is written atomically and must be intact; the journal's tail
// may be torn and is repaired.
func replay(s *Store, dir string) (RecoveryStats, error) {
	var stats RecoveryStats
	n, _, err := replayFile(s, snapshotPath(dir), false)
	if err != nil {
		return stats, err
	}
	stats.SnapshotRecords = n
	n, rep, err := replayFile(s, journalPath(dir), true)
	if err != nil {
		return stats, err
	}
	stats.JournalRecords = n
	stats.DroppedRecords = rep.dropped
	stats.TruncatedBytes = rep.truncatedBytes
	stats.Repaired = rep.repaired
	return stats, nil
}

type repairInfo struct {
	dropped        int
	truncatedBytes int64
	repaired       bool
}

// replayFile applies one snapshot/journal file to s. When repairTail is
// set, malformed trailing lines (with no valid record after them) are
// dropped and the file truncated back to the last valid record;
// malformed lines *followed by* valid records are an error either way.
func replayFile(s *Store, path string, repairTail bool) (int, repairInfo, error) {
	var rep repairInfo
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, rep, nil
		}
		return 0, rep, fmt.Errorf("datastore: open %s: %w", path, err)
	}

	type badLine struct {
		line   int
		offset int64
		err    error
	}
	var (
		r       = bufio.NewReaderSize(f, 1<<20)
		offset  int64 // start of the current line
		goodEnd int64 // end offset of the last valid record
		line    int
		applied int
		bad     []badLine
		ps      document.Parser
	)
	for {
		raw, rerr := r.ReadBytes('\n')
		if len(raw) == 0 && rerr != nil {
			break
		}
		line++
		lineStart := offset
		offset += int64(len(raw))
		torn := rerr != nil // no trailing newline: partial final write
		data := bytes.TrimSuffix(raw, []byte("\n"))
		if len(data) == 0 {
			if !torn && len(bad) == 0 {
				goodEnd = offset
			}
			if rerr != nil {
				break
			}
			continue
		}
		// A torn (newline-less) final line can still be complete — e.g.
		// only the '\n' itself was lost — so every line gets the same
		// treatment: accept iff checksum and JSON both decode.
		rec, derr := decodeRecord(&ps, data)
		if derr != nil {
			bad = append(bad, badLine{line: line, offset: lineStart, err: derr})
			if rerr != nil {
				break
			}
			continue
		}
		if len(bad) > 0 {
			f.Close()
			return applied, rep, fmt.Errorf("datastore: %s line %d: corrupt record followed by valid data (not a torn tail): %v",
				path, bad[0].line, bad[0].err)
		}
		if aerr := applyRecord(s, rec); aerr != nil {
			f.Close()
			return applied, rep, fmt.Errorf("datastore: %s line %d: %w", path, line, aerr)
		}
		applied++
		goodEnd = offset
		if rerr != nil {
			break
		}
	}
	f.Close()

	if len(bad) == 0 {
		return applied, rep, nil
	}
	if !repairTail {
		return applied, rep, fmt.Errorf("datastore: %s line %d: %v", path, bad[0].line, bad[0].err)
	}
	// Torn tail: every line after goodEnd is bad. Cut them off.
	rep.dropped = len(bad)
	rep.truncatedBytes = offset - goodEnd
	rep.repaired = true
	if err := os.Truncate(path, goodEnd); err != nil {
		return applied, rep, fmt.Errorf("datastore: repair %s: %w", path, err)
	}
	return applied, rep, nil
}

func applyRecord(s *Store, rec journalRecord) error {
	if rec.Op == journalMeta {
		// Snapshot header: everything at or below Gen lives in the
		// snapshot, not the journal.
		s.repl.observeBase(rec.Gen)
		return nil
	}
	if rec.Gen != 0 {
		s.repl.observe(rec.Gen)
	}
	c := s.C(rec.Collection)
	switch rec.Op {
	case journalInsert, journalUpdate:
		d := rec.doc
		if d == nil {
			return fmt.Errorf("doc: %s record for %q has no document", rec.Op, rec.ID)
		}
		c.mu.Lock()
		if _, exists := c.docs[rec.ID]; exists {
			c.replaceLocked(rec.ID, d)
		} else {
			c.insertLocked(rec.ID, d)
		}
		c.mu.Unlock()
	case journalRemove:
		c.mu.Lock()
		c.removeLocked(rec.ID)
		c.mu.Unlock()
	case journalIndex, journalIndexDrop:
		// Index records are rare and tiny: read the definition through
		// its struct tags.
		var def indexDef
		if rec.doc != nil {
			b, err := rec.doc.ToJSON()
			if err == nil {
				err = json.Unmarshal(b, &def)
			}
			if err != nil {
				return fmt.Errorf("index def: %w", err)
			}
		}
		c.mu.Lock()
		if rec.Op == journalIndex {
			paths := def.Paths
			if len(paths) == 0 && def.Path != "" {
				paths = []string{def.Path}
			}
			if len(paths) > 0 {
				c.ensureIndexLocked(paths)
			}
		} else {
			// A drop record's id is the index name, in both the old
			// single-path and the current definition formats.
			delete(c.ordered, rec.ID)
			// Every other mutation path bumps inside the lock (the
			// *Locked helpers do it themselves); a replayed drop must
			// too, or cached plans keep validating against the index
			// that no longer exists.
			c.bumpGenLocked()
		}
		c.mu.Unlock()
	case journalDrop:
		s.mu.Lock()
		delete(s.collections, rec.Collection)
		s.mu.Unlock()
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// snapshot serializes every collection to the snapshot file and truncates
// the journal. The rotation is atomic and crash-ordered: the temp file is
// fully written and fsynced before the rename, and the journal is only
// truncated after the rename lands, so a crash at any point leaves
// either (old snapshot + full journal) or (new snapshot + journal in
// some state ≥ empty) — both replayable.
func (j *journal) snapshot(s *Store) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	snapStart := time.Now()
	defer func() {
		j.obs.Counter("datastore.journal.snapshots").Inc()
		j.obs.LatencyHistogram("datastore.journal.snapshot_ms").ObserveDuration(time.Since(snapStart))
	}()
	tmp := snapshotPath(j.dir) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("datastore: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)

	// Header: the replication generation this snapshot covers. Batch
	// writes hold j.mu, so no frame can reach the journal while the
	// snapshot runs. Generations are minted at stage time, inside the
	// collection write lock, so every minted generation ≤ head has
	// already been applied in memory and is captured by the state scan
	// below; any of its frames still pending in the commit queue land in
	// the rotated journal afterwards and replay idempotently.
	var head uint64
	if j.repl != nil {
		head = j.repl.current()
		meta := appendFrame(nil, journalRecord{Op: journalMeta, Gen: head})
		if _, werr := w.Write(append(meta, '\n')); werr != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("datastore: snapshot meta: %w", werr)
		}
	}

	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()

	for _, c := range colls {
		if err := snapshotCollection(w, c); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	syncStart := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	j.obs.LatencyHistogram("datastore.journal.fsync_ms").ObserveDuration(time.Since(syncStart))
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, snapshotPath(j.dir)); err != nil {
		return err
	}
	syncDir(j.dir)
	// Truncate the journal now that its contents are in the snapshot.
	// A rotation failure leaves the journal un-truncated, which is
	// safe: replay applies the (idempotent) journal on top of the new
	// snapshot.
	if j.file != nil {
		if err := j.w.Flush(); err != nil {
			return fmt.Errorf("datastore: rotate journal: %w", err)
		}
		if err := j.syncTimed(j.file); err != nil {
			return fmt.Errorf("datastore: rotate journal: %w", err)
		}
		err := j.file.Close()
		j.file = nil
		if err != nil {
			j.recordWriteErrLocked(err)
			return fmt.Errorf("datastore: rotate journal: %w", err)
		}
	}
	if err := os.Truncate(journalPath(j.dir), 0); err != nil {
		return err
	}
	nf, err := os.OpenFile(journalPath(j.dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	j.file = nf
	j.w = bufio.NewWriter(nf)
	if j.repl != nil {
		// Generations at or below head now live only in the snapshot;
		// log pulls from below must fall back to a snapshot copy.
		j.repl.setBase(head)
	}
	return nil
}

// snapshotCollection encodes every document of c into w under the
// collection's read lock. Only buffered writes happen while the lock
// is held; flush and fsync run after every collection is released, so
// the store keeps serving writes to other collections during the disk
// work.
func snapshotCollection(w *bufio.Writer, c *Collection) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var line []byte
	// Index definitions first, so replay has them in place before the
	// documents arrive (backfill-on-create is then a no-op and every
	// insert maintains the index incrementally).
	for _, rec := range c.indexDefRecordsLocked() {
		line = append(appendFrame(line[:0], rec), '\n')
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("datastore: snapshot write: %w", err)
		}
	}
	var doc []byte
	for _, slot := range c.order {
		if slot.dead {
			continue
		}
		id := slot.id
		var err error
		if doc, err = document.AppendJSON(doc[:0], map[string]any(c.docs[id])); err != nil {
			return fmt.Errorf("datastore: snapshot doc encode: %w", err)
		}
		rec := journalRecord{Op: journalInsert, Collection: c.name, ID: id, Doc: doc}
		line = append(appendFrame(line[:0], rec), '\n')
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("datastore: snapshot write: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	// Best-effort by design: some filesystems reject directory fsync and
	// the rename above is already durable on the ones we target. The
	// blank assignment records the decision, so no fsyncerr suppression
	// is needed.
	_ = d.Sync()
	d.Close()
}
