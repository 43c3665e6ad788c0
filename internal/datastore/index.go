package datastore

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"matproj/internal/document"
	"matproj/internal/query"
)

// index is a secondary index over one dotted path. It maintains both a
// hash map (value key -> ids) for equality/contains lookups and a sorted
// key list for range scans. Array values are multikey: each element is
// indexed, matching MongoDB.
type index struct {
	path string
	// buckets maps a canonical key string to the set of doc ids holding
	// that value (or containing it, for arrays).
	buckets map[string]*bucket
	// sorted holds bucket keys in document.Compare order of their sample
	// values, rebuilt lazily for range scans. The lazy rebuild happens
	// under the collection's *shared* lock, so concurrent readers
	// serialize on sortMu (writers hold the exclusive lock and never
	// race it).
	sortMu sync.Mutex
	sorted []string
	dirty  bool
	// multikey is set once an array value is indexed and never cleared
	// (writers hold the collection's exclusive lock; readers its shared
	// lock). A multikey path makes two-sided ranges unsound as a single
	// sorted interval — see rangeLookup.
	multikey bool
}

type bucket struct {
	value any
	ids   map[string]struct{}
}

// canonicalKey renders an indexable value to a map key. Numbers collapse
// across int64/float64 exactly when they are numerically equal: 3 and 3.0
// share a bucket, but integers beyond float64's exact range (|x| > 2^53)
// keep their own buckets rather than collapsing through a lossy float64
// conversion.
func canonicalKey(v any) string {
	switch x := v.(type) {
	case nil:
		return "z:null"
	case bool:
		return fmt.Sprintf("b:%v", x)
	case int64:
		return "i:" + strconv.FormatInt(x, 10)
	case float64:
		// Integral floats exactly representable as int64 use the integer
		// form so they collapse with their int64 equals; everything else
		// (fractions, huge magnitudes, ±Inf, NaN) keys on the float form.
		if x == math.Trunc(x) && x >= -9.223372036854775808e18 && x < 9.223372036854775808e18 {
			return "i:" + strconv.FormatInt(int64(x), 10)
		}
		return fmt.Sprintf("n:%g", x)
	case string:
		return "s:" + x
	default:
		// Documents/arrays index by their JSON form.
		b, err := document.D{"v": v}.ToJSON()
		if err != nil {
			return fmt.Sprintf("x:%v", v)
		}
		return "j:" + string(b)
	}
}

func newIndex(path string) *index {
	return &index{path: path, buckets: make(map[string]*bucket)}
}

// keysFor lists the index keys a document contributes for this path.
func (ix *index) keysFor(d document.D) []any {
	v, ok := d.Get(ix.path)
	if !ok {
		return nil
	}
	if arr, isArr := v.([]any); isArr {
		// Elements for multikey lookups, plus the whole array so an
		// equality filter on the full array value also hits the index
		// (without this, {path: [1,2]} planned through the index found
		// nothing even when documents matched).
		ix.multikey = true
		out := make([]any, 0, len(arr)+1)
		out = append(out, arr...)
		out = append(out, v)
		return out
	}
	return []any{v}
}

func (ix *index) add(id string, d document.D) {
	for _, v := range ix.keysFor(d) {
		k := canonicalKey(v)
		b, ok := ix.buckets[k]
		if !ok {
			b = &bucket{value: v, ids: make(map[string]struct{})}
			ix.buckets[k] = b
			ix.dirty = true
		}
		b.ids[id] = struct{}{}
	}
}

func (ix *index) remove(id string, d document.D) {
	for _, v := range ix.keysFor(d) {
		k := canonicalKey(v)
		if b, ok := ix.buckets[k]; ok {
			delete(b.ids, id)
			if len(b.ids) == 0 {
				delete(ix.buckets, k)
				ix.dirty = true
			}
		}
	}
}

// lookup returns ids of documents whose indexed path equals (or, for
// multikey, contains) v.
func (ix *index) lookup(v any) map[string]struct{} {
	b, ok := ix.buckets[canonicalKey(v)]
	if !ok {
		return nil
	}
	return b.ids
}

// rangeLookup returns ids whose indexed value lies within the constraint
// bounds.
func (ix *index) rangeLookup(rc query.RangeConstraint) map[string]struct{} {
	ix.sortMu.Lock()
	if ix.dirty {
		ix.sorted = ix.sorted[:0]
		for k := range ix.buckets {
			ix.sorted = append(ix.sorted, k)
		}
		sort.Slice(ix.sorted, func(i, j int) bool {
			return document.Compare(ix.buckets[ix.sorted[i]].value, ix.buckets[ix.sorted[j]].value) < 0
		})
		ix.dirty = false
	}
	sorted := ix.sorted
	ix.sortMu.Unlock()
	// On a multikey path a two-sided range cannot be applied bucket-wise:
	// cmpPred tests each array element independently, so one element may
	// satisfy the min bound while another satisfies the max — yet no
	// single bucket value satisfies both. Apply only the min bound there
	// (a superset; callers re-verify against the full filter).
	useMax := rc.HasMax && !(ix.multikey && rc.HasMin)
	out := make(map[string]struct{})
	for _, k := range sorted {
		b := ix.buckets[k]
		if rc.HasMin {
			c := document.Compare(b.value, rc.Min)
			if c < 0 || (c == 0 && rc.MinOpen) {
				continue
			}
		}
		if useMax {
			c := document.Compare(b.value, rc.Max)
			if c > 0 || (c == 0 && rc.MaxOpen) {
				break
			}
		}
		for id := range b.ids {
			out[id] = struct{}{}
		}
	}
	return out
}

// EnsureIndex creates a secondary index on a dotted path, backfilling from
// existing documents. Creating an existing index is a no-op. The
// definition is journaled so durable stores rebuild it on replay and
// replicas receive it through the log.
func (c *Collection) EnsureIndex(path string) {
	if path == "" || path == "_id" {
		return // _id is always the primary key
	}
	var p pendingCommit
	c.mu.Lock()
	if c.ensureHashLocked(path) {
		p = c.stageLocked(journalIndex, path, hashIndexDefDoc(path))
	}
	c.mu.Unlock()
	_ = p.commit()
}

// ensureHashLocked creates a hash index without journaling (shared by
// EnsureIndex and journal/replication replay). Returns whether a new
// index was created.
func (c *Collection) ensureHashLocked(path string) bool {
	if _, ok := c.indexes[path]; ok {
		return false
	}
	ix := newIndex(path)
	for id, d := range c.docs {
		ix.add(id, d)
	}
	c.indexes[path] = ix
	c.bumpGenLocked()
	return true
}

// DropIndex removes a secondary index.
func (c *Collection) DropIndex(path string) {
	var p pendingCommit
	c.mu.Lock()
	if _, had := c.indexes[path]; had {
		delete(c.indexes, path)
		c.bumpGenLocked()
		p = c.stageLocked(journalIndexDrop, path, hashIndexDefDoc(path))
	}
	c.mu.Unlock()
	_ = p.commit()
}

// scanLocked evaluates a compiled filter and returns matching ids in
// insertion order. The caller must hold at least a read lock.
//
// Planning: _id equality resolves directly; otherwise planQueryLocked
// (planner.go) estimates a cardinality for every usable index — hash
// equality/contains buckets, ordered key ranges — and the cheapest
// access path's candidates are verified against the full filter. With
// no usable index the whole collection is scanned.
func (c *Collection) scanLocked(flt *query.Filter) []string {
	if ids, handled := c.idLookupLocked(flt); handled {
		c.notePlan(&queryPlan{mode: "id", estimate: len(ids), ndocs: len(c.docs)})
		return ids
	}
	plan := c.planQueryLocked(flt, nil, nil)
	c.notePlan(plan)
	return c.execPlanLocked(flt, plan, 0)
}

// idLookupLocked resolves an _id-pinned filter directly against the
// primary key map. The second return reports whether the filter was
// handled (an _id equality on a string value, present or not).
func (c *Collection) idLookupLocked(flt *query.Filter) ([]string, bool) {
	if flt == nil {
		return nil, false
	}
	idv, ok := flt.EqualityFields()["_id"]
	if !ok {
		return nil, false
	}
	id, isStr := idv.(string)
	if !isStr {
		return nil, false
	}
	if d, exists := c.docs[id]; exists && flt.Matches(d) {
		return []string{id}, true
	}
	return nil, true
}

// execPlanLocked runs a chosen plan, returning matching ids in insertion
// order. maxMatches > 0 stops after that many matches — valid whenever
// the caller wants an insertion-order prefix (no-sort limit pushdown).
func (c *Collection) execPlanLocked(flt *query.Filter, plan *queryPlan, maxMatches int) []string {
	var out []string
	if plan.mode != "index" || plan.access == nil {
		for _, slot := range c.order {
			if slot.dead {
				continue
			}
			if id := slot.id; flt.Matches(c.docs[id]) {
				out = append(out, id)
				if maxMatches > 0 && len(out) >= maxMatches {
					break
				}
			}
		}
		return out
	}
	candidates := c.candidateIDsLocked(plan.access)
	// Verify only the candidates, restoring insertion order via the
	// per-id order positions (cheaper than walking the whole order
	// slice when the index is selective).
	ids := make([]string, 0, len(candidates))
	for id := range candidates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return c.pos[ids[i]] < c.pos[ids[j]] })
	for _, id := range ids {
		if flt.Matches(c.docs[id]) {
			out = append(out, id)
			if maxMatches > 0 && len(out) >= maxMatches {
				break
			}
		}
	}
	return out
}

// Cursor iterates a result snapshot. Cursors are not safe for concurrent
// use; each goroutine should obtain its own.
type Cursor struct {
	docs []document.D
	pos  int
}

// Next returns the next document, or nil when exhausted.
func (cur *Cursor) Next() document.D {
	if cur.pos >= len(cur.docs) {
		return nil
	}
	d := cur.docs[cur.pos]
	cur.pos++
	return d
}

// All drains the cursor from the current position.
func (cur *Cursor) All() []document.D {
	out := cur.docs[cur.pos:]
	cur.pos = len(cur.docs)
	return out
}

// Len reports the total number of documents in the cursor's snapshot.
func (cur *Cursor) Len() int { return len(cur.docs) }

// Rewind resets the cursor to the beginning of its snapshot.
func (cur *Cursor) Rewind() { cur.pos = 0 }
