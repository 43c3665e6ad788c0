// Package shard holds the hash partitioning and scatter-gather merge
// primitives behind the networked cluster router (internal/cluster), the
// scaling path the paper reserves for future work (§IV-D2).
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/query"
)

// This file holds the partition/merge primitives of the networked router
// in internal/cluster: which shard group a key hashes to, which groups a
// filter must touch, and the global merge-sort/skip/limit semantics of a
// scatter-gathered read. Placement is part of the on-disk layout of a
// deployment, so HashShard must not change without re-sharding.

// HashShard maps a shard-key value to a group index in [0, n). The hash
// is FNV-1a over the value's canonical print form, so int64(5) and
// float64(5) route identically.
func HashShard(v any, n int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", v)
	return int(h.Sum32() % uint32(n))
}

// Targets returns the shard group indexes a filter must touch out of n
// groups: a filter pinning shardKey to a single value routes to one
// group, anything else scatters to all.
func Targets(filter document.D, shardKey string, n int) ([]int, error) {
	if len(filter) > 0 {
		flt, err := query.Compile(filter)
		if err != nil {
			return nil, err
		}
		if v, ok := flt.EqualityFields()[shardKey]; ok {
			return []int{HashShard(v, n)}, nil
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all, nil
}

// SplitFindOpts splits a query's options into the per-shard options
// (projection and sort pushed down; skip always cleared) and the global
// sort/skip/limit the gatherer applies after the merge. Sorted, limited
// queries push a skip+limit cap down to each shard; unsorted queries
// clear the limit too, because a shard cannot truncate an arbitrary
// order without dropping globally needed rows.
func SplitFindOpts(opts *datastore.FindOpts) (perShard *datastore.FindOpts, sortSpec []string, skip, limit int) {
	if opts == nil {
		return nil, nil, 0, 0
	}
	o := *opts
	sortSpec = o.Sort
	skip, limit = o.Skip, o.Limit
	o.Skip, o.Limit = 0, 0
	// Limit pushdown: with an explicit sort, the global top (skip+limit)
	// rows are contained in the union of each shard's top (skip+limit)
	// rows, so shards can stop early. Without a sort the per-shard order
	// is arbitrary and truncating it could drop rows the merge needs.
	if len(sortSpec) > 0 && limit > 0 {
		o.Limit = skip + limit
	}
	return &o, sortSpec, skip, limit
}

// MergeDocs applies the global half of a scatter-gathered read: sort the
// concatenated per-shard results (by the requested sort, or by _id for a
// deterministic cross-shard order), then skip/limit.
func MergeDocs(docs []document.D, sortSpec []string, skip, limit int) ([]document.D, error) {
	if len(sortSpec) > 0 {
		keys, err := query.ParseSort(sortSpec)
		if err != nil {
			return nil, err
		}
		query.SortDocs(docs, keys)
	} else {
		sort.Slice(docs, func(i, j int) bool {
			a, _ := docs[i]["_id"].(string)
			b, _ := docs[j]["_id"].(string)
			return a < b
		})
	}
	if skip > 0 {
		if skip >= len(docs) {
			docs = nil
		} else {
			docs = docs[skip:]
		}
	}
	if limit > 0 && limit < len(docs) {
		docs = docs[:limit]
	}
	return docs, nil
}

// MergeDistinct unions per-shard distinct-value lists, dropping
// duplicates and restoring document.Compare order.
func MergeDistinct(lists [][]any) []any {
	var out []any
	for _, vals := range lists {
		for _, v := range vals {
			dup := false
			for _, s := range out {
				if document.Equal(s, v) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return document.Compare(out[i], out[j]) < 0 })
	return out
}

var mintCounter uint64
var mintMu sync.Mutex

// MintID mints a cluster-unique document id at the router, so every
// group member stores an identical document and the hash routes
// deterministically.
func MintID() string {
	mintMu.Lock()
	defer mintMu.Unlock()
	mintCounter++
	return fmt.Sprintf("sh%012x", mintCounter)
}
