package shard

import (
	"fmt"
	"testing"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

func doc(s string) document.D { return document.MustFromJSON(s) }

// TestInsertDistributesAcrossShards checks hash balance: router-minted
// ids spread over every group, none badly skewed.
func TestInsertDistributesAcrossShards(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 200; i++ {
		counts[HashShard(MintID(), len(counts))]++
	}
	for i, n := range counts {
		if n == 0 || n > 100 {
			t.Errorf("shard %d holds %d/200 (counts %v)", i, n, counts)
		}
	}
}

// TestScatterGatherFindMatchesSingleStore partitions a corpus by
// HashShard, runs the per-shard half of a sorted, skipped and limited
// query on each part (SplitFindOpts), merges (MergeDocs), and checks the
// result equals the same query on one store holding everything.
func TestScatterGatherFindMatchesSingleStore(t *testing.T) {
	single := datastore.MustOpenMemory().C("materials")
	parts := make([]*datastore.Collection, 3)
	for i := range parts {
		parts[i] = datastore.MustOpenMemory().C("materials")
	}
	for i := 0; i < 120; i++ {
		d := document.D{"_id": fmt.Sprintf("m%03d", i), "formula": fmt.Sprintf("F%03d", i), "nelectrons": int64(10 + i)}
		if _, err := single.Insert(d); err != nil {
			t.Fatal(err)
		}
		if _, err := parts[HashShard(d["_id"], len(parts))].Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	filter := doc(`{"nelectrons": {"$gte": 50, "$lt": 90}}`)
	opts := &datastore.FindOpts{Sort: []string{"-nelectrons"}, Skip: 3, Limit: 10}
	want, err := single.FindAll(filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	perShard, sortSpec, skip, limit := SplitFindOpts(opts)
	var all []document.D
	for _, p := range parts {
		docs, err := p.FindAll(filter, perShard)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, docs...)
	}
	got, err := MergeDocs(all, sortSpec, skip, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i]["formula"] != want[i]["formula"] {
			t.Errorf("row %d: %v vs %v", i, got[i]["formula"], want[i]["formula"])
		}
	}
}

// TestShardKeyRouting checks that a filter pinning the shard key targets
// the one group the key hashes to, and any other filter targets all.
func TestShardKeyRouting(t *testing.T) {
	got, err := Targets(doc(`{"chemsys": "sys1", "n": {"$gt": 3}}`), "chemsys", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != HashShard("sys1", 4) {
		t.Errorf("pinned targets = %v, want [%d]", got, HashShard("sys1", 4))
	}
	for _, f := range []string{`{}`, `{"n": 1}`, `{"chemsys": {"$in": ["sys1", "sys2"]}}`} {
		got, err := Targets(doc(f), "chemsys", 4)
		if err != nil || len(got) != 4 {
			t.Errorf("Targets(%s) = %v (err %v), want all 4 groups", f, got, err)
		}
	}
	if HashShard(int64(5), 7) != HashShard(5.0, 7) {
		t.Error("int64(5) and float64(5) route differently")
	}
}

func TestBadFilterPropagates(t *testing.T) {
	if _, err := Targets(doc(`{"$bogus": 1}`), "_id", 2); err == nil {
		t.Error("bad filter accepted")
	}
	if _, err := MergeDocs([]document.D{{"_id": "a"}}, []string{""}, 0, 0); err == nil {
		t.Error("bad sort accepted")
	}
}
