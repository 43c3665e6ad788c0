package pipeline_test

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/pipeline"
)

// TestCopyCollectionsCopiesCompoundIndexes copies a source holding a
// single-field and a compound index to a two-group router and checks
// that every shard has both definitions and plans the compound one.
func TestCopyCollectionsCopiesCompoundIndexes(t *testing.T) {
	src := datastore.MustOpenMemory()
	mats := src.C("materials")
	for i := 0; i < 40; i++ {
		if _, err := mats.Insert(document.D{
			"_id":       fmt.Sprintf("mat-%03d", i),
			"nelements": int64(i%4 + 1),
			"band_gap":  float64(i%10) / 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mats.EnsureIndex("band_gap")
	mats.EnsureIndex("nelements", "band_gap")

	var groups [][]string
	var nodes []*cluster.Node
	for gi := 0; gi < 2; gi++ {
		n := cluster.NewNode(fmt.Sprintf("node-%d", gi), datastore.MustOpenMemory(), nil)
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		groups = append(groups, []string{srv.URL})
		nodes = append(nodes, n)
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	if n, err := pipeline.CopyCollections(router, src); err != nil || n != 40 {
		t.Fatalf("copied %d docs (err %v), want 40", n, err)
	}

	filter := document.D{"nelements": int64(2), "band_gap": document.D{"$gte": 1.0}}
	for gi, n := range nodes {
		c := n.Store().C("materials")
		if got := c.Stats().Indexes; len(got) != 2 || got[0] != "band_gap" || got[1] != "nelements,band_gap" {
			t.Errorf("shard %d indexes = %v, want [band_gap nelements,band_gap]", gi, got)
		}
		plan, err := c.Explain(filter, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plan["mode"] != "index" || plan["index"] != "nelements,band_gap" {
			t.Errorf("shard %d plan = %v, want the nelements,band_gap index", gi, plan)
		}
	}
}
