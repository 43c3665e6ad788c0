package datastore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"matproj/internal/document"
)

func TestJournalReplayRestoresStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("mps")
	id, _ := c.Insert(doc(`{"formula": "Fe2O3", "nsites": 10}`))
	c.Insert(doc(`{"_id": "keep", "v": 1}`))
	c.Insert(doc(`{"_id": "gone", "v": 2}`))
	c.UpdateOne(doc(`{"_id": "keep"}`), doc(`{"$set": {"v": 42}}`))
	c.RemoveID("gone")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2 := s2.C("mps")
	n, _ := c2.Count(nil)
	if n != 2 {
		t.Fatalf("count after replay = %d", n)
	}
	got, err := c2.FindID(id)
	if err != nil || got["formula"] != "Fe2O3" {
		t.Errorf("doc = %v err = %v", got, err)
	}
	kept, _ := c2.FindID("keep")
	if kept["v"] != int64(42) {
		t.Errorf("update not replayed: %v", kept["v"])
	}
	if _, err := c2.FindID("gone"); !errors.Is(err, ErrNotFound) {
		t.Error("remove not replayed")
	}
}

func TestSnapshotTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	c := s.C("x")
	for i := 0; i < 50; i++ {
		c.Insert(document.D{"n": int64(i)})
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	jinfo, err := os.Stat(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if jinfo.Size() != 0 {
		t.Errorf("journal size after snapshot = %d", jinfo.Size())
	}
	// Writes after snapshot land in the journal and replay on top.
	c.Insert(doc(`{"_id": "post", "n": 999}`))
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	n, _ := s2.C("x").Count(nil)
	if n != 51 {
		t.Errorf("count = %d, want 51", n)
	}
	if _, err := s2.C("x").FindID("post"); err != nil {
		t.Errorf("post-snapshot doc lost: %v", err)
	}
}

func TestDropCollectionPersisted(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.C("temp").Insert(doc(`{"v": 1}`))
	s.C("keep").Insert(doc(`{"v": 2}`))
	s.DropCollection("temp")
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	for _, name := range s2.Collections() {
		if name == "temp" {
			t.Error("dropped collection resurrected")
		}
	}
	n, _ := s2.C("keep").Count(nil)
	if n != 1 {
		t.Errorf("keep count = %d", n)
	}
}

func TestMemoryStoreSnapshotNoop(t *testing.T) {
	s := MustOpenMemory()
	if err := s.Snapshot(); err != nil {
		t.Errorf("memory snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestReplayCorruptJournalTailRepaired(t *testing.T) {
	// A malformed final line with nothing valid after it is a torn
	// tail: replay truncates it and the store opens.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail should be repaired, got %v", err)
	}
	rec := s.Recovery()
	if !rec.Repaired || rec.DroppedRecords != 1 {
		t.Errorf("recovery stats: %+v", rec)
	}
	s.Close()
	data, _ := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if len(data) != 0 {
		t.Errorf("journal not truncated: %q", data)
	}

	// A record that decodes but carries an unknown op is real
	// corruption, not a torn write: still an error.
	os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(`{"op":"zz","c":"x"}`+"\n"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("unknown op: want error")
	}
}

func TestReplayEmptyLinesTolerated(t *testing.T) {
	dir := t.TempDir()
	content := `{"op":"i","c":"x","id":"a","doc":{"v":1}}` + "\n\n" + `{"op":"i","c":"x","id":"b","doc":{"v":2}}` + "\n"
	os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(content), 0o644)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n, _ := s.C("x").Count(nil)
	if n != 2 {
		t.Errorf("count = %d", n)
	}
}

func TestReplayUpdateForUnknownIDInserts(t *testing.T) {
	// An update record for an id missing from the snapshot (possible after
	// journal truncation edge cases) must still materialize the document.
	dir := t.TempDir()
	content := `{"op":"u","c":"x","id":"a","doc":{"_id":"a","v":9}}` + "\n"
	os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(content), 0o644)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.C("x").FindID("a")
	if err != nil || got["v"] != int64(9) {
		t.Errorf("got %v err %v", got, err)
	}
}

// TestCloseReleasesStoreLockBeforeJournalClose is the regression test
// for an AB/BA deadlock: Close used to hold s.mu while journal.close
// took j.mu, while journal.snapshot holds j.mu and read-locks s.mu. The
// fixed Close detaches the journal under s.mu and closes it outside, so
// the store lock must be observably free while Close waits on j.mu.
func TestCloseReleasesStoreLockBeforeJournalClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := s.journal.Load()
	if j == nil {
		t.Fatal("journaled store expected")
	}

	j.mu.Lock() // stand in for a concurrent snapshot holding the journal lock
	done := make(chan error, 1)
	go func() { done <- s.Close() }()

	detached := false
	for i := 0; i < 2000 && !detached; i++ {
		if s.mu.TryRLock() {
			detached = s.journal.Load() == nil
			s.mu.RUnlock()
		}
		if !detached {
			time.Sleep(time.Millisecond)
		}
	}
	j.mu.Unlock()
	if !detached {
		<-done
		t.Fatal("Close still holds s.mu while waiting on the journal lock; concurrent Snapshot would deadlock")
	}
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestNonFiniteWriteRefusedAndNeverAcked: a document holding ±Inf or NaN
// has no JSON form, so it can never be journaled. Every write path must
// refuse it before applying — the durable store used to apply the
// update, drop the journal encode error and acknowledge, so readers saw
// +Inf that a reopen silently rolled back to 1e308.
func TestNonFiniteWriteRefusedAndNeverAcked(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("m")
	if _, err := c.Insert(document.D{"_id": "a", "x": 1e308}); err != nil {
		t.Fatal(err)
	}
	inc := document.D{"$inc": document.D{"x": 1e308}}
	filter := document.D{"_id": "a"}
	if _, err := c.UpdateOne(filter, inc); !errors.Is(err, document.ErrUnsupportedValue) {
		t.Fatalf("overflowing $inc: err = %v, want ErrUnsupportedValue", err)
	}
	if _, err := c.Upsert(filter, inc); err == nil {
		t.Error("overflowing upsert acknowledged")
	}
	if _, err := c.FindAndModify(filter, inc, nil, true); err == nil {
		t.Error("overflowing findAndModify acknowledged")
	}
	res, err := c.BulkWrite([]BulkOp{
		{Op: BulkUpdateOne, Filter: filter, Update: inc},
		{Op: BulkInsert, Doc: document.D{"_id": "b", "x": math.Inf(-1)}},
	})
	if err != nil || res.PerOp[0].Error == "" || res.PerOp[1].Error == "" || res.Modified+res.Inserted != 0 {
		t.Errorf("bulk with non-finite values = %+v, %v; want both ops refused", res, err)
	}
	if _, err := c.Insert(document.D{"_id": "c", "x": math.NaN()}); err == nil {
		t.Error("NaN insert acknowledged")
	}
	if _, err := c.InsertMany([]document.D{{"_id": "d"}, {"_id": "e", "x": math.Inf(1)}}); err == nil {
		t.Error("insertMany with +Inf acknowledged")
	}
	check := func(c *Collection, when string) {
		t.Helper()
		if n, _ := c.Count(nil); n != 1 {
			t.Errorf("%s: %d documents, want only the original", when, n)
		}
		got, err := c.FindID("a")
		if err != nil || got["x"] != 1e308 {
			t.Errorf("%s: x = %v (%v), want 1e308", when, got["x"], err)
		}
	}
	check(c, "before reopen")
	// Should a record still fail to encode, its commit fails: the write
	// is never acknowledged without its journal record.
	j := s.journal.Load()
	if err := j.commit(j.stageWrite("m", journalUpdate, "a", document.D{"x": math.NaN()})); err == nil {
		t.Error("unencodable journal record committed without error")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2.C("m"), "after reopen")
}

// TestInvalidUTF8WriteRefused: the journal writes U+FFFD in place of
// invalid UTF-8, so a restart would rename an id, key or value. Every
// write path refuses such a document before applying it, and a write to
// a collection whose name is invalid UTF-8 is refused too. A valid
// non-ASCII id survives close and reopen byte for byte.
func TestInvalidUTF8WriteRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("m")
	if _, err := c.Insert(document.D{"_id": "a\xff"}); !errors.Is(err, document.ErrUnsupportedValue) {
		t.Fatalf("insert of _id a\\xff: err = %v, want ErrUnsupportedValue", err)
	}
	const valid = "é mp-1"
	if _, err := c.Insert(document.D{"_id": valid, "s": "ok"}); err != nil {
		t.Fatal(err)
	}
	bad := document.D{"$set": document.D{"s": "x\xc3"}}
	filter := document.D{"_id": valid}
	if _, err := c.InsertMany([]document.D{{"_id": "b"}, {"_id": "c", "k\xff": int64(1)}}); err == nil {
		t.Error("insertMany with an invalid key acknowledged")
	}
	if _, err := c.UpdateOne(filter, bad); !errors.Is(err, document.ErrUnsupportedValue) {
		t.Errorf("update to an invalid string: err = %v, want ErrUnsupportedValue", err)
	}
	if _, err := c.Upsert(document.D{"_id": "d\xff"}, document.D{"$set": document.D{"s": "ok"}}); err == nil {
		t.Error("upsert inserting an invalid id acknowledged")
	}
	if _, err := c.FindAndModify(filter, bad, nil, true); err == nil {
		t.Error("findAndModify to an invalid string acknowledged")
	}
	res, err := c.BulkWrite([]BulkOp{
		{Op: BulkUpdateOne, Filter: filter, Update: bad},
		{Op: BulkInsert, Doc: document.D{"_id": "e\xff"}},
	})
	if err != nil || res.PerOp[0].Error == "" || res.PerOp[1].Error == "" || res.Modified+res.Inserted != 0 {
		t.Errorf("bulk with invalid UTF-8 = %+v, %v; want both ops refused", res, err)
	}
	if _, err := s.C("bad\xff").Insert(document.D{"_id": "f"}); !errors.Is(err, document.ErrUnsupportedValue) {
		t.Errorf("insert into collection bad\\xff: err = %v, want ErrUnsupportedValue", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.C("m").Count(nil); n != 1 {
		t.Errorf("after reopen: %d documents, want 1", n)
	}
	got, err := s2.C("m").FindID(valid)
	if err != nil || got["_id"] != valid || got["s"] != "ok" {
		t.Errorf("after reopen: FindID(%q) = %v, %v", valid, got, err)
	}
	if names := s2.Collections(); len(names) != 1 || names[0] != "m" {
		t.Errorf("after reopen: collections %q, want [m]", names)
	}
}
