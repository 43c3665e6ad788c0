package datastore

import (
	"fmt"
	"os"
	"testing"

	"matproj/internal/document"
)

// Index-definition durability: compound and single-field index
// definitions are journal records ("x"/"X" ops), so they must survive
// replay, snapshot compaction, torn journal tails, and replication
// catch-up exactly like documents do.

func seedIndexedStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.C("m").Insert(document.D{
			"_id": fmt.Sprintf("d%02d", i), "a": int64(i % 4), "b": int64(i), "s": string(rune('a' + i%3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.C("m").EnsureIndex("a", "b")
	s.C("m").EnsureIndex("gone")
	s.C("m").DropIndex("gone")
	s.C("m").EnsureIndex("s")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertIndexedStore checks the index set and that the planner actually
// uses the recovered indexes (definition without backfill would plan
// right and answer wrong — FindAll re-verifies, so also compare counts).
func assertIndexedStore(t *testing.T, s *Store) {
	t.Helper()
	c := s.C("m")
	names := c.Stats().Indexes
	if len(names) != 2 || names[0] != "a,b" || names[1] != "s" {
		t.Fatalf("indexes after recovery: %v, want [a,b s]", names)
	}
	plan, err := c.Explain(document.D{"a": int64(2), "b": document.D{"$gte": int64(0)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan["mode"] != "index" || plan["index"] != "a,b" || plan["index_kind"] != "ordered" {
		t.Fatalf("recovered ordered index not planned: %v", plan)
	}
	docs, err := c.FindAll(document.D{"a": int64(2)}, &FindOpts{Sort: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0].GetString("_id") != "d02" || docs[1].GetString("_id") != "d06" {
		t.Fatalf("indexed query after recovery: %v", docs)
	}
	plan, err = c.Explain(document.D{"s": "a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan["mode"] != "index" || plan["index_kind"] != "ordered" {
		t.Fatalf("recovered single-field index not planned: %v", plan)
	}
	if n, _ := c.Count(document.D{"s": "a"}); n != 3 {
		t.Fatalf("single-field-indexed count after recovery: %d, want 3", n)
	}
}

func TestIndexDefsSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	seedIndexedStore(t, dir)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertIndexedStore(t, s)
	// The recovered index must also be maintained, not just backfilled.
	if _, err := s.C("m").Insert(document.D{"_id": "d99", "a": int64(2), "b": int64(99)}); err != nil {
		t.Fatal(err)
	}
	docs, err := s.C("m").FindAll(document.D{"a": int64(2)}, &FindOpts{Sort: []string{"-b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 || docs[0].GetString("_id") != "d99" {
		t.Fatalf("insert after recovery missed the index: %v", docs)
	}
}

func TestIndexDefsSurviveSnapshot(t *testing.T) {
	dir := t.TempDir()
	seedIndexedStore(t, dir)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A post-snapshot write replays on top of the snapshot's defs.
	if _, err := s.C("m").Insert(document.D{"_id": "d50", "a": int64(1), "b": int64(50)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertIndexedStore(t, s2)
	if n, _ := s2.C("m").Count(document.D{"a": int64(1)}); n != 3 {
		t.Fatalf("post-snapshot insert lost: count %d, want 3", n)
	}
}

func TestTornIndexCreateLeavesPriorIndexesIntact(t *testing.T) {
	dir := t.TempDir()
	seedIndexedStore(t, dir)
	// Make an index-create the journal's final record, then tear it.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.C("m").EnsureIndex("b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(JournalFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(JournalFile(dir), int64(len(data)-4)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn index record: %v", err)
	}
	defer s2.Close()
	if !s2.Recovery().Repaired {
		t.Fatalf("torn tail not reported: %+v", s2.Recovery())
	}
	// The torn create is gone; everything before it is intact.
	for _, name := range s2.C("m").Stats().Indexes {
		if name == "b" {
			t.Fatal("torn index-create record survived replay")
		}
	}
	assertIndexedStore(t, s2)
}

func TestReplTailCarriesIndexDefs(t *testing.T) {
	srcDir := t.TempDir()
	seedIndexedStore(t, srcDir)
	src, err := Open(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	lines, head, err := src.ReplTail(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	applied, gen, torn, err := dst.ApplyReplEntries(lines)
	if err != nil || torn {
		t.Fatalf("apply: applied=%d err=%v torn=%v", applied, err, torn)
	}
	if gen != head {
		t.Fatalf("follower gen %d, want %d", gen, head)
	}
	assertIndexedStore(t, dst)
}

func TestReplSnapshotCarriesIndexDefs(t *testing.T) {
	srcDir := t.TempDir()
	seedIndexedStore(t, srcDir)
	src, err := Open(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	snap, head, err := src.ReplSnapshotEntries()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	dst.C("stale").EnsureIndex("junk") // must be wiped by reset
	if err := dst.ReplReset(snap, head); err != nil {
		t.Fatal(err)
	}
	if n := dst.C("stale").Stats().Indexes; len(n) != 0 {
		t.Fatalf("stale indexes survived reset: %v", n)
	}
	assertIndexedStore(t, dst)
}
