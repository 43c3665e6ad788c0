package datastore

import (
	"fmt"
	"math/rand"
	"testing"

	"matproj/internal/document"
)

// BenchmarkRangeQuery measures the tentpole workload — a ~1%-selectivity
// numeric range query with an order-by on the same field — with and
// without an ordered index, at 10k and 100k documents. The mpbench
// "planner" experiment packages the same comparison as a gated artifact
// (BENCH_planner.json); this benchmark keeps it one `go test -bench`
// away during development.
func BenchmarkRangeQuery(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, indexed := range []bool{true, false} {
			name := fmt.Sprintf("docs=%d/indexed=%v", n, indexed)
			b.Run(name, func(b *testing.B) {
				c := MustOpenMemory().C("bench")
				if indexed {
					c.EnsureIndex("value")
				}
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < n; i++ {
					if _, err := c.Insert(document.D{
						"_id":   fmt.Sprintf("b%06d", i),
						"value": rng.Float64() * 100,
						"group": int64(rng.Intn(40)),
					}); err != nil {
						b.Fatal(err)
					}
				}
				filter := document.D{"value": document.D{"$gte": 49.5, "$lt": 50.5}}
				opts := &FindOpts{Sort: []string{"value"}}
				if _, err := c.FindAll(filter, opts); err != nil { // warmup: lazy key sort
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.FindAll(filter, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIndexPointLookup measures an indexed equality lookup through
// Find over 10k documents, at high cardinality (every value unique: one
// match) and low cardinality (10 values: a tenth of the collection
// matches). Lookups rotate over the values.
func BenchmarkIndexPointLookup(b *testing.B) {
	const n = 10000
	for _, card := range []struct {
		name   string
		values int
	}{{"high", n}, {"low", 10}} {
		b.Run("cardinality="+card.name, func(b *testing.B) {
			c := MustOpenMemory().C("bench")
			c.EnsureIndex("key")
			for i := 0; i < n; i++ {
				if _, err := c.Insert(document.D{"_id": fmt.Sprintf("b%06d", i), "key": int64(i % card.values)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				docs, err := c.FindAll(document.D{"key": int64(i % card.values)}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(docs) != n/card.values {
					b.Fatalf("lookup found %d docs, want %d", len(docs), n/card.values)
				}
			}
		})
	}
}
