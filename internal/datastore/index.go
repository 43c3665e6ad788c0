package datastore

import (
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"matproj/internal/document"
)

// orderedIndex is the collection's secondary index, over one path or
// several (a compound index). Each document contributes one key per
// combination of its component values (arrays are multikey: every
// element plus the whole array, so both element equality and
// whole-array comparisons hit the index; a missing path indexes as null,
// matching both {path: null} filters and sort order, where missing sorts
// with null). Keys are order-preserving encodings (keyenc.go), so the
// sorted key list is the index order, a range scan is a contiguous slice
// of it, and an equality lookup is one map probe.
//
// The sorted key list is rebuilt lazily: mutations (under the
// collection's exclusive lock) just mark it dirty; the first range scan
// afterwards re-sorts under sortMu. sortMu is a leaf mutex taken only
// by readers holding the collection's shared lock — writers never race
// the rebuild because they hold the exclusive lock.
type orderedIndex struct {
	name  string
	paths []string
	// entries maps an encoded composite key to the ids holding it.
	entries map[string]*oBucket
	// nids counts id entries across all buckets (for cost estimates).
	nids int
	// multikey is set once any document contributes more than one key
	// (i.e. an array appeared on a component path). A multikey index
	// can emit a document at several positions, so it can accelerate
	// lookups but never satisfy a sort. Sticky: never unset.
	multikey bool

	sortMu sync.Mutex
	sorted []string
	dirty  bool
}

type oBucket struct {
	ids map[string]struct{}
}

// orderedIndexName is the canonical name for an ordered index over the
// given component paths.
func orderedIndexName(paths []string) string {
	return strings.Join(paths, ",")
}

func newOrderedIndex(paths []string) *orderedIndex {
	cp := make([]string, len(paths))
	copy(cp, paths)
	return &orderedIndex{
		name:    orderedIndexName(cp),
		paths:   cp,
		entries: make(map[string]*oBucket),
	}
}

// keysFor returns the (deduplicated) composite keys a document
// contributes, and whether it contributed in a multikey way.
func (ox *orderedIndex) keysFor(d document.D) ([]string, bool) {
	multi := false
	parts := make([][]string, len(ox.paths))
	for i, p := range ox.paths {
		v, ok := d.Get(p)
		if !ok {
			parts[i] = []string{encodeKeyString(nil)}
			continue
		}
		if arr, isArr := v.([]any); isArr {
			multi = true
			alts := make([]string, 0, len(arr)+1)
			for _, el := range arr {
				alts = append(alts, encodeKeyString(el))
			}
			alts = append(alts, encodeKeyString(arr))
			parts[i] = dedupeSortedStrings(alts)
			continue
		}
		parts[i] = []string{encodeKeyString(v)}
	}
	keys := []string{""}
	for _, alts := range parts {
		if len(alts) == 1 {
			for j := range keys {
				keys[j] += alts[0]
			}
			continue
		}
		next := make([]string, 0, len(keys)*len(alts))
		for _, k := range keys {
			for _, a := range alts {
				next = append(next, k+a)
			}
		}
		keys = next
	}
	if len(keys) > 1 {
		keys = dedupeSortedStrings(keys)
	}
	return keys, multi
}

func dedupeSortedStrings(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i > 0 && s == in[i-1] {
			continue
		}
		out = append(out, s)
	}
	return out
}

// add indexes a document. Caller holds the collection lock exclusively.
func (ox *orderedIndex) add(id string, d document.D) {
	keys, multi := ox.keysFor(d)
	if multi {
		ox.multikey = true
	}
	for _, k := range keys {
		b, ok := ox.entries[k]
		if !ok {
			b = &oBucket{ids: make(map[string]struct{})}
			ox.entries[k] = b
			ox.dirty = true
		}
		if _, dup := b.ids[id]; !dup {
			b.ids[id] = struct{}{}
			ox.nids++
		}
	}
}

// remove unindexes a document. Caller holds the collection lock
// exclusively. The multikey flag stays set: sort-satisfaction must hold
// for the index's whole history, not just its current contents.
func (ox *orderedIndex) remove(id string, d document.D) {
	keys, _ := ox.keysFor(d)
	for _, k := range keys {
		b, ok := ox.entries[k]
		if !ok {
			continue
		}
		if _, had := b.ids[id]; !had {
			continue
		}
		delete(b.ids, id)
		ox.nids--
		if len(b.ids) == 0 {
			delete(ox.entries, k)
			ox.dirty = true
		}
	}
}

// sortedKeys returns the encoded keys in byte (= document.Compare)
// order, rebuilding lazily after mutations. Callers hold the
// collection's read lock; concurrent readers serialize on sortMu.
// Callers must not mutate the returned slice.
func (ox *orderedIndex) sortedKeys() []string {
	ox.sortMu.Lock()
	defer ox.sortMu.Unlock()
	if ox.dirty {
		keys := make([]string, 0, len(ox.entries))
		for k := range ox.entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ox.sorted = keys
		ox.dirty = false
	}
	return ox.sorted
}

// keyRange locates the half-open position range [lo, hi) of keys
// between the encoded bounds. hiPrefix, when non-empty, extends the
// range to also include keys carrying that byte prefix (an inclusive
// upper bound on a component: the component's encoding is a prefix of
// every key that continues past it).
func (ox *orderedIndex) keyRange(keys []string, lo, hi, hiPrefix string) (int, int) {
	start := sort.SearchStrings(keys, lo)
	var end int
	if hiPrefix != "" {
		// First key past the inclusive-prefix region: the prefix with a
		// terminator-sized bump covers every continuation.
		end = sort.SearchStrings(keys, hiPrefix+string(byte(keyTagEnd)))
	} else {
		end = sort.SearchStrings(keys, hi)
	}
	if end < start {
		end = start
	}
	return start, end
}

// EnsureIndex creates (and backfills) a secondary index over the given
// dotted paths: one path makes a single-field index, several a compound
// one. Creating an index that already exists is a no-op, as is an index
// on "_id" alone (the primary key) or on an empty or invalid-UTF-8 path.
// The definition is journaled, so durable stores rebuild it on replay
// and replicas receive it through the log.
func (c *Collection) EnsureIndex(paths ...string) {
	if len(paths) == 0 || (len(paths) == 1 && paths[0] == "_id") || !utf8.ValidString(c.name) {
		return
	}
	for _, p := range paths {
		if p == "" || !utf8.ValidString(p) {
			return
		}
	}
	var pc pendingCommit
	c.mu.Lock()
	if c.ensureIndexLocked(paths) {
		pc = c.stageLocked(journalIndex, orderedIndexName(paths), indexDefDoc(paths))
	}
	c.mu.Unlock()
	_ = pc.commit()
}

// ensureIndexLocked creates the index without journaling (shared by
// EnsureIndex and journal/replication replay). Returns whether a new
// index was created.
func (c *Collection) ensureIndexLocked(paths []string) bool {
	name := orderedIndexName(paths)
	if _, ok := c.ordered[name]; ok {
		return false
	}
	ox := newOrderedIndex(paths)
	for id, d := range c.docs {
		ox.add(id, d)
	}
	c.ordered[name] = ox
	// Index creation changes query plans (and $explain output), so it
	// invalidates generation-keyed result caches like any write.
	c.bumpGenLocked()
	return true
}

// DropIndex removes a secondary index by its name (the comma-joined
// component paths).
func (c *Collection) DropIndex(name string) {
	var pc pendingCommit
	c.mu.Lock()
	if _, had := c.ordered[name]; had {
		delete(c.ordered, name)
		c.bumpGenLocked()
		pc = c.stageLocked(journalIndexDrop, name, document.D{"ordered": true, "name": name})
	}
	c.mu.Unlock()
	_ = pc.commit()
}

// IndexPaths returns the component paths of every secondary index,
// ordered by index name.
func (c *Collection) IndexPaths() [][]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := c.indexNamesLocked()
	out := make([][]string, len(names))
	for i, n := range names {
		out[i] = append([]string(nil), c.ordered[n].paths...)
	}
	return out
}

// indexNamesLocked returns the index names, sorted. Caller holds c.mu.
func (c *Collection) indexNamesLocked() []string {
	out := make([]string, 0, len(c.ordered))
	for n := range c.ordered {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// indexDefDoc renders an index definition as a journal payload
// document.
func indexDefDoc(paths []string) document.D {
	ps := make([]any, len(paths))
	for i, p := range paths {
		ps[i] = p
	}
	return document.D{"ordered": true, "paths": ps}
}
