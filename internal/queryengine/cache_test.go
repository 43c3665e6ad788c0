package queryengine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/rcache"
)

func cachedEngine(t *testing.T) (*Engine, *rcache.Cache, *datastore.Store) {
	t.Helper()
	store := datastore.MustOpenMemory()
	rc := rcache.New(1024, obs.NewRegistry())
	eng := New(store, WithCache(rc))
	return eng, rc, store
}

func TestFindServedFromCacheUntilWrite(t *testing.T) {
	eng, rc, _ := cachedEngine(t)
	for i := 0; i < 20; i++ {
		if _, err := eng.Insert("u", "m", document.D{"band_gap": float64(i) / 10}); err != nil {
			t.Fatal(err)
		}
	}
	filter := document.D{"band_gap": document.D{"$gte": 1.0}}

	a, err := eng.Find("u", "m", filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Find("u", "m", filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after identical finds = %+v, want 1 hit / 1 miss", st)
	}
	if len(a) != len(b) {
		t.Fatalf("cached result differs: %d vs %d docs", len(a), len(b))
	}
	// A write invalidates: the next read recomputes and sees new data,
	// while results held across the write are snapshots that keep their
	// pre-write values.
	if len(b) == 0 {
		t.Fatal("fixture matched no documents")
	}
	id, before := b[0]["_id"], b[0]["band_gap"]
	if _, err := eng.Update("u", "m", document.D{"_id": id}, document.D{"$set": document.D{"band_gap": 8.8}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("u", "m", document.D{"band_gap": 9.9}); err != nil {
		t.Fatal(err)
	}
	if b[0]["band_gap"] != before {
		t.Fatalf("snapshot held across a write changed: %v -> %v", before, b[0]["band_gap"])
	}
	d, err := eng.Find("u", "m", filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != len(a)+1 {
		t.Fatalf("post-write find = %d docs, want %d", len(d), len(a)+1)
	}
	for _, doc := range d {
		if doc["_id"] == id && doc["band_gap"] != 8.8 {
			t.Fatalf("fresh read of %v = %v, want band_gap 8.8", id, doc["band_gap"])
		}
	}
}

func TestCountAndDistinctCached(t *testing.T) {
	eng, rc, _ := cachedEngine(t)
	for i := 0; i < 10; i++ {
		if _, err := eng.Insert("u", "m", document.D{"k": int64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		n, err := eng.Count("u", "m", nil)
		if err != nil || n != 10 {
			t.Fatalf("count = %d, %v", n, err)
		}
		vals, err := eng.Distinct("u", "m", "k", nil)
		if err != nil || len(vals) != 3 {
			t.Fatalf("distinct = %v, %v", vals, err)
		}
	}
	st := rc.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses (count + distinct each)", st)
	}

	// Distinct after a write sees the new value.
	if _, err := eng.Insert("u", "m", document.D{"k": int64(7)}); err != nil {
		t.Fatal(err)
	}
	vals, err := eng.Distinct("u", "m", "k", nil)
	if err != nil || len(vals) != 4 {
		t.Fatalf("post-write distinct = %v, %v", vals, err)
	}
}

func TestCacheKeysRespectAliasesAndCollections(t *testing.T) {
	eng, rc, _ := cachedEngine(t)
	eng.AddAlias("m", "energy", "final_energy")
	if _, err := eng.Insert("u", "m", document.D{"final_energy": -1.5}); err != nil {
		t.Fatal(err)
	}
	// Aliased and physical spellings of the same filter translate to the
	// same canonical key: second spelling is a hit, not a second entry.
	if _, err := eng.Find("u", "m", document.D{"energy": -1.5}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Find("u", "m", document.D{"final_energy": -1.5}, nil); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("aliased spellings: stats = %+v, want 1 hit / 1 miss", st)
	}
	// A different collection with the same filter is a different key.
	if _, err := eng.Find("u", "other", document.D{"final_energy": -1.5}, nil); err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.Misses != 2 {
		t.Fatalf("cross-collection: stats = %+v, want 2 misses", st)
	}
}

// TestCacheNoStaleReadUnderConcurrentWrites is the generation-freshness
// stress test: writers update documents and record the acknowledged
// value; readers note the latest ack *before* querying and assert the
// cached read path never returns anything older. Run under -race in
// check.sh's stress pass.
func TestCacheNoStaleReadUnderConcurrentWrites(t *testing.T) {
	eng, _, _ := cachedEngine(t)
	const writers = 2
	const readers = 4
	const rounds = 200

	// One document per writer; acked[w] is the last value whose Update
	// call has returned.
	var acked [writers]atomic.Int64
	for w := 0; w < writers; w++ {
		if _, err := eng.Insert("u", "m", document.D{"_id": fmt.Sprintf("doc-%d", w), "v": int64(0)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("doc-%d", w)
			for i := int64(1); i <= rounds; i++ {
				if _, err := eng.Update("u", "m", document.D{"_id": id}, document.D{"$set": document.D{"v": i}}, false); err != nil {
					t.Error(err)
					return
				}
				acked[w].Store(i) // write acknowledged
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := r % writers
			id := fmt.Sprintf("doc-%d", w)
			for {
				floor := acked[w].Load() // observed before the read starts
				docs, err := eng.Find("u", "m", document.D{"_id": id}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(docs) != 1 {
					t.Errorf("reader %d: %d docs for %s", r, len(docs), id)
					return
				}
				got, _ := docs[0]["v"].(int64)
				if got < floor {
					t.Errorf("stale read: doc %s = %d, but %d was already acknowledged", id, got, floor)
					return
				}
				if floor == rounds {
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
