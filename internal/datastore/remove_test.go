package datastore

import (
	"fmt"
	"slices"
	"testing"

	"matproj/internal/document"
)

// scanIDs lists a query's result ids in the order the store returns them.
func scanIDs(t *testing.T, c *Collection, filter document.D) []string {
	t.Helper()
	docs, err := c.FindAll(filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d["_id"].(string)
	}
	return ids
}

// TestRemoveKeepsScanOrder mixes every removal path (Remove, RemoveID,
// bulk delete, replayed removes) with inserts and re-inserts of removed
// ids, and checks that full scans and index equality and range plans all
// return documents in insertion order, before and after a reopen.
func TestRemoveKeepsScanOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("m")
	c.EnsureIndex("k")
	c.EnsureIndex("v")
	var model []string // live ids in insertion order
	insert := func(id string, i int) {
		t.Helper()
		if _, err := c.Insert(document.D{"_id": id, "k": int64(i % 7), "v": int64(i % 5)}); err != nil {
			t.Fatal(err)
		}
		model = append(model, id)
	}
	drop := func(pred func(id string) bool) {
		model = slices.DeleteFunc(model, pred)
	}
	for i := 0; i < 300; i++ {
		insert(fmt.Sprintf("d%03d", i), i)
	}
	check := func(stage string) {
		t.Helper()
		if got := scanIDs(t, c, nil); !slices.Equal(got, model) {
			t.Fatalf("%s: scan order\n got  %v\n want %v", stage, got, model)
		}
		// One index equality plan and one index range plan.
		for _, q := range []struct {
			filter document.D
			match  func(document.D) bool
		}{
			{document.D{"k": int64(2)}, func(d document.D) bool { return d["k"] == int64(2) }},
			{document.D{"v": document.D{"$gte": int64(3)}}, func(d document.D) bool { return d["v"].(int64) >= 3 }},
		} {
			var want []string
			for _, id := range model {
				d, err := c.FindID(id)
				if err != nil {
					t.Fatal(err)
				}
				if q.match(d) {
					want = append(want, id)
				}
			}
			if got := scanIDs(t, c, q.filter); !slices.Equal(got, want) {
				t.Fatalf("%s: %v order\n got  %v\n want %v", stage, q.filter, got, want)
			}
		}
	}
	n, err := c.Remove(document.D{"k": int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	before := len(model)
	drop(func(id string) bool {
		var i int
		fmt.Sscanf(id, "d%03d", &i)
		return i%7 == 3
	})
	if n != before-len(model) {
		t.Fatalf("Remove removed %d, want %d", n, before-len(model))
	}
	check("after Remove")
	for i := 300; i < 340; i++ {
		insert(fmt.Sprintf("d%03d", i), i)
	}
	for _, id := range []string{"d000", "d151", "d339", "d001"} {
		if err := c.RemoveID(id); err != nil {
			t.Fatal(err)
		}
		drop(func(x string) bool { return x == id })
	}
	check("after RemoveID")
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BulkWrite([]BulkOp{
		{Op: BulkDelete, Filter: document.D{"v": int64(4)}},
		{Op: BulkInsert, Doc: document.D{"_id": "d000", "k": int64(0), "v": int64(0)}},
	}); err != nil {
		t.Fatal(err)
	}
	drop(func(id string) bool {
		var i int
		fmt.Sscanf(id, "d%03d", &i)
		return i%5 == 4
	})
	model = append(model, "d000")
	check("after bulk delete and re-insert")
	// Enough removals to force several compactions, interleaved with
	// inserts.
	for round := 0; round < 5; round++ {
		victims := slices.Clone(model[:len(model)/2])
		for _, id := range victims {
			if err := c.RemoveID(id); err != nil {
				t.Fatal(err)
			}
		}
		model = model[len(victims):]
		for i := 0; i < 20; i++ {
			insert(fmt.Sprintf("r%d-%02d", round, i), i)
		}
		check(fmt.Sprintf("after compaction round %d", round))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay applies the snapshot, then the journal's removes and
	// inserts, through the same mutators.
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c = s.C("m")
	check("after reopen")
}

// BenchmarkRemoveHalf removes every other document of a collection in
// one Remove call. With O(1) slot removal the time per removed document
// stays flat as the collection grows (the old splice made it linear).
func BenchmarkRemoveHalf(b *testing.B) {
	for _, n := range []int{10000, 20000, 40000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := MustOpenMemory().C("m")
				docs := make([]document.D, n)
				for j := range docs {
					docs[j] = document.D{"_id": fmt.Sprintf("d%06d", j), "odd": j%2 == 1}
				}
				if _, err := c.InsertMany(docs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := c.Remove(document.D{"odd": true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n/2), "ns/removed")
		})
	}
}
