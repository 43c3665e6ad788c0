package datastore

import (
	"os"
	"testing"

	"matproj/internal/document"
)

// TestGenerationAdvancesOnWrites checks that every acknowledged mutation
// changes the collection's write generation, and that reads leave it
// alone — the invariant the result cache keys validity on.
func TestGenerationAdvancesOnWrites(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("m")
	g0 := c.Generation()

	id, err := c.Insert(document.D{"a": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	g1 := c.Generation()
	if g1 == g0 {
		t.Fatalf("insert did not change generation (%d)", g1)
	}

	// Reads must not bump.
	if _, err := c.FindAll(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Distinct("a", nil); err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != g1 {
		t.Fatalf("read changed generation: %d -> %d", g1, g)
	}

	if _, err := c.UpdateOne(document.D{"_id": id}, document.D{"$set": document.D{"a": int64(2)}}); err != nil {
		t.Fatal(err)
	}
	g2 := c.Generation()
	if g2 == g1 {
		t.Fatal("update did not change generation")
	}

	if _, err := c.Upsert(document.D{"b": int64(9)}, document.D{"$set": document.D{"x": int64(1)}}); err != nil {
		t.Fatal(err)
	}
	g3 := c.Generation()
	if g3 == g2 {
		t.Fatal("upsert did not change generation")
	}

	if _, err := c.FindAndModify(document.D{"_id": id}, document.D{"$set": document.D{"a": int64(3)}}, nil, true); err != nil {
		t.Fatal(err)
	}
	g4 := c.Generation()
	if g4 == g3 {
		t.Fatal("findAndModify did not change generation")
	}

	if _, err := c.Remove(document.D{"_id": id}); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == g4 {
		t.Fatal("remove did not change generation")
	}
}

// TestGenerationChangesAcrossReplay checks that a collection rebuilt by
// journal replay carries a generation unlike any handed out before the
// restart, and that a dropped-and-recreated collection never reuses one
// — both would otherwise let a stale cache entry validate.
func TestGenerationChangesAcrossReplay(t *testing.T) {
	dir, err := os.MkdirTemp("", "gen")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.C("m").Insert(document.D{"_id": "a", "v": int64(1)}); err != nil {
		t.Fatal(err)
	}
	gBefore := s.C("m").Generation()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gAfter := s2.C("m").Generation()
	if gAfter == gBefore {
		t.Fatalf("replayed collection reused generation %d", gAfter)
	}
	// Replay applied one insert, so the generation moved past creation.
	s2.DropCollection("m")
	gNew := s2.C("m").Generation()
	if gNew == gAfter || gNew == gBefore {
		t.Fatalf("recreated collection reused generation (%d, %d, %d)", gBefore, gAfter, gNew)
	}
}

// TestCountDistinctProfiled is the regression test for the unprofiled
// read ops: Count and Distinct must land in the store profiler (and so
// in the live Fig. 5 metrics) like every other operation.
func TestCountDistinctProfiled(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("m")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(document.D{"k": int64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Count(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Distinct("k", nil); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, e := range s.Profiler().Entries() {
		got[e.Op]++
	}
	if got["count"] != 1 {
		t.Errorf("profiler saw %d count ops, want 1", got["count"])
	}
	if got["distinct"] != 1 {
		t.Errorf("profiler saw %d distinct ops, want 1", got["distinct"])
	}
}

// TestDistinctUnifiesNumericTypes pins the index-key dedupe semantics:
// an int64 and a float64 that are numerically equal are one distinct
// value (they were under the old document.Equal scan too — the map-keyed
// dedupe must not change that).
func TestDistinctUnifiesNumericTypes(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("m")
	for _, v := range []any{int64(3), float64(3), float64(3.5), int64(4), "3"} {
		if _, err := c.Insert(document.D{"v": v}); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := c.Distinct("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 { // 3 (==3.0), 3.5, 4, "3"
		t.Fatalf("distinct = %v, want 4 values", vals)
	}
}

// BenchmarkDistinct10k measures Distinct over a 10k-document collection
// with many repeated values — the workload where the old O(n²)
// document.Equal scan collapsed. The map-keyed dedupe is linear.
func BenchmarkDistinct10k(b *testing.B) {
	s := MustOpenMemory()
	c := s.C("m")
	for i := 0; i < 10000; i++ {
		if _, err := c.Insert(document.D{"formula": "X" + string(rune('A'+i%200)), "n": int64(i % 500)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Distinct("n", nil); err != nil {
			b.Fatal(err)
		}
	}
}
