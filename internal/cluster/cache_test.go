package cluster_test

import (
	"fmt"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/rcache"
	"matproj/internal/shard"
)

// idsOnShard mints n distinct _ids that all hash to shard group gi.
func idsOnShard(t *testing.T, gi, groups, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		id := fmt.Sprintf("doc-%04d", i)
		if shard.HashShard(id, groups) == gi {
			out = append(out, id)
		}
	}
	return out
}

// TestClusterCachePerShardInvalidation checks the router's cache
// granularity: a scatter read caches one entry per shard group, and a
// write routed to one group invalidates only that group's entry — the
// untouched group keeps serving from cache.
func TestClusterCachePerShardInvalidation(t *testing.T) {
	rc := rcache.New(256, obs.NewRegistry())
	tc := startClusterCache(t, 2, 0, rc)
	routed := tc.router.C("materials")

	ids0 := idsOnShard(t, 0, 2, 2)
	ids1 := idsOnShard(t, 1, 2, 1)
	for _, id := range []string{ids0[0], ids1[0]} {
		if _, err := routed.Insert(document.D{"_id": id, "v": int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	gSeeded := routed.Generation()
	if gSeeded == 0 {
		t.Fatal("generation still zero after routed inserts")
	}

	// First scatter count warms both shard entries; the second hits both.
	if n, err := routed.Count(nil); err != nil || n != 2 {
		t.Fatalf("count = %d, %v", n, err)
	}
	base := rc.Stats()
	if n, err := routed.Count(nil); err != nil || n != 2 {
		t.Fatalf("repeat count = %d, %v", n, err)
	}
	st := rc.Stats()
	if hits := st.Hits - base.Hits; hits != 2 {
		t.Fatalf("repeat scatter count got %d hits, want 2 (one per shard)", hits)
	}

	// A write routed to shard 0 bumps only shard 0's generation: the next
	// scatter recomputes shard 0 and still hits shard 1.
	if _, err := routed.Insert(document.D{"_id": ids0[1], "v": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if g := routed.Generation(); g != gSeeded+1 {
		t.Fatalf("generation after one write = %d, want %d", g, gSeeded+1)
	}
	base = rc.Stats()
	if n, err := routed.Count(nil); err != nil || n != 3 {
		t.Fatalf("post-write count = %d, %v", n, err)
	}
	st = rc.Stats()
	if hits := st.Hits - base.Hits; hits != 1 {
		t.Errorf("post-write scatter got %d hits, want 1 (shard 1 untouched)", hits)
	}
	if misses := st.Misses - base.Misses; misses != 1 {
		t.Errorf("post-write scatter got %d misses, want 1 (shard 0 invalidated)", misses)
	}
}

// TestClusterCacheUpdateOneReadsFresh checks that updateOne's internal
// pinning read bypasses the cache (even when the identical query was
// just cached) and that reads after the update see the new value.
func TestClusterCacheUpdateOneReadsFresh(t *testing.T) {
	rc := rcache.New(256, obs.NewRegistry())
	tc := startClusterCache(t, 2, 1, rc)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 10)

	filter := document.D{"_id": "mat-003"}
	// Warm the cache with the exact Limit-1 read updateOne issues.
	for i := 0; i < 2; i++ {
		if _, err := routed.FindAll(filter, &datastore.FindOpts{Limit: 1}); err != nil {
			t.Fatal(err)
		}
	}

	res, err := routed.UpdateOne(filter, document.D{"$set": document.D{"band_gap": 99.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 || res.Modified != 1 {
		t.Fatalf("updateOne res = %+v, want exactly one modified", res)
	}

	docs, err := routed.FindAll(filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0]["band_gap"] != 99.5 {
		t.Fatalf("post-update read = %v, want band_gap 99.5", docs)
	}

	// Results are shared read-only snapshots: one held across a write
	// keeps its pre-write values, and a fresh read sees the write.
	if _, err := routed.UpdateOne(filter, document.D{"$set": document.D{"band_gap": 7.25}}); err != nil {
		t.Fatal(err)
	}
	if docs[0]["band_gap"] != 99.5 {
		t.Fatalf("snapshot held across a write changed: %v", docs[0])
	}
	again, err := routed.FindAll(filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0]["band_gap"] != 7.25 {
		t.Fatalf("read after second update = %v, want band_gap 7.25", again)
	}
}

// TestEnsureIndexBumpsGeneration pins the index-DDL/cache contract:
// EnsureIndex, single-field or compound, must advance the write
// generation, or cached plans and ETags keep validating against the old
// index set until an unrelated write lands.
func TestEnsureIndexBumpsGeneration(t *testing.T) {
	rc := rcache.New(256, obs.NewRegistry())
	tc := startClusterCache(t, 2, 0, rc)
	routed := tc.router.C("materials")
	seedMaterials(t, routed, 4)

	g0 := routed.Generation()
	if g0 == 0 {
		t.Fatal("generation still zero after seeding")
	}
	tc.router.EnsureIndex("materials", "band_gap")
	if g := routed.Generation(); g <= g0 {
		t.Fatalf("generation after EnsureIndex = %d, want > %d", g, g0)
	}
	tc.router.EnsureIndex("materials", "band_gap", "nelements")
	if g := routed.Generation(); g <= g0+1 {
		t.Fatalf("generation after compound EnsureIndex = %d, want > %d", g, g0+1)
	}
}
