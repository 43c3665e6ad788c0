package datastore

// Cost-based query planning. planQueryLocked inspects a compiled
// filter's conjunct-sound constraints (equality, $in, ranges, $all
// containment — only constraints hoisted from the top level or $and
// branches, so using them can over-select but never under-select),
// estimates a candidate cardinality for every usable index, and picks
// the cheapest access path, falling back to a full scan. Every
// execution path re-verifies candidates against the complete filter,
// so the planner only has to be a superset oracle; correctness is
// enforced by the property-based scan-vs-index oracle test.
//
// Cost model (deterministic, pinned by the golden Explain tests):
//
//	scan               len(docs)
//	hash equality      len(bucket)           (exact)
//	hash contains      len(bucket)           (exact)
//	ordered full-tuple len(bucket)           (exact)
//	ordered prefix     keysInRange × ceil(nids/entries)
//	ordered range      keysInRange × ceil(nids/entries)
//	ordered $in        Σ per-member region estimates
//
// keysInRange costs two binary searches — the planner never walks a
// candidate range to price it. The cheapest estimate wins; ties prefer
// a sort-satisfying plan, then lexicographically smaller index names,
// then index over scan only when the estimate is strictly smaller (or
// the index satisfies the sort for free).

import (
	"fmt"
	"sort"
	"strings"

	"matproj/internal/document"
	"matproj/internal/query"
)

// planAccess describes how a chosen index is read.
type planAccess struct {
	kind string // "hash-eq", "hash-contains", "hash-range", "ordered"
	hash *index
	ord  *orderedIndex

	// hash access
	hashValue any
	// rangeIDs is the materialized id set of a hash-range fallback (the
	// legacy full-bucket walk, consulted only when no other index
	// applies — an ordered index on the path replaces it entirely).
	rangeIDs map[string]struct{}

	// ordered access: either point/range bounds or $in point regions.
	lo, hi   string
	hiPrefix string   // inclusive upper bound region (encoded prefix)
	inKeys   []string // sorted encoded prefixes, one region per $in member

	estimate int
	bounds   string   // human-readable bound description for Explain
	used     []string // constraint paths the access path consumes
	sortable bool     // emission order == index component order
}

// queryPlan is the planner's decision for one query.
type queryPlan struct {
	mode          string // "scan" or "index"
	access        *planAccess
	sortSatisfied bool // index emission order satisfies the requested sort
	reverse       bool // emit index order backwards (all-descending sort)
	estimate      int  // candidate cardinality estimate for the chosen path
	ndocs         int
	hinted        bool
	considered    []consideredAccess
	// constraintPaths lists every index-usable constrained path in the
	// filter (for residual reporting in Explain).
	constraintPaths []string
}

// consideredAccess is one (index, estimate) pair the planner evaluated.
type consideredAccess struct {
	index    string
	kind     string
	estimate int
}

// planQueryLocked chooses an access path. Caller holds c.mu (read or
// write). sortKeys and opts may be nil/empty; opts.Hint forces the
// named index when it is usable at all.
func (c *Collection) planQueryLocked(flt *query.Filter, sortKeys []query.SortKey, opts *FindOpts) *queryPlan {
	plan := &queryPlan{mode: "scan", ndocs: len(c.docs), estimate: len(c.docs)}
	if flt == nil && len(sortKeys) == 0 {
		return plan
	}

	var eq map[string]any
	var ins []query.InConstraint
	var ranges []query.RangeConstraint
	var contains []struct {
		Path  string
		Value any
	}
	if flt != nil {
		eq = flt.EqualityFields()
		ins = flt.InFields()
		ranges = flt.RangeFields()
		contains = flt.ContainsFields()
	}
	cpSeen := make(map[string]struct{})
	notePath := func(p string) {
		if _, dup := cpSeen[p]; dup {
			return
		}
		cpSeen[p] = struct{}{}
		plan.constraintPaths = append(plan.constraintPaths, p)
	}
	for p := range eq {
		notePath(p)
	}
	for _, ic := range ins {
		notePath(ic.Path)
	}
	for _, rc := range ranges {
		notePath(rc.Path)
	}
	for _, fc := range contains {
		notePath(fc.Path)
	}
	sort.Strings(plan.constraintPaths)
	rangeFor := func(path string) (query.RangeConstraint, bool) {
		for _, rc := range ranges {
			if rc.Path == path {
				return rc, true
			}
		}
		return query.RangeConstraint{}, false
	}
	inFor := func(path string) (query.InConstraint, bool) {
		for _, ic := range ins {
			if ic.Path == path {
				return ic, true
			}
		}
		return query.InConstraint{}, false
	}

	// Sort satisfaction precondition that is independent of the index:
	// Find applies the projection before sorting, so index-order
	// emission is only equivalent when there is nothing to project.
	sortEligible := len(sortKeys) > 0 && (opts == nil || opts.Projection == nil)
	uniformAsc, uniformDesc := true, true
	sortPaths := make([]string, len(sortKeys))
	for i, k := range sortKeys {
		sortPaths[i] = k.Path
		if k.Desc {
			uniformAsc = false
		} else {
			uniformDesc = false
		}
	}
	sortEligible = sortEligible && (uniformAsc || uniformDesc)

	var candidates []*planAccess

	// Hash indexes: equality and contains lookups (existing semantics).
	// A nil equality value is not index-usable — documents missing the
	// field match {path: null} but contribute no hash key.
	hashPaths := make([]string, 0, len(c.indexes))
	for p := range c.indexes {
		hashPaths = append(hashPaths, p)
	}
	sort.Strings(hashPaths)
	for _, p := range hashPaths {
		ix := c.indexes[p]
		if v, ok := eq[p]; ok && v != nil {
			candidates = append(candidates, &planAccess{
				kind: "hash-eq", hash: ix, hashValue: v,
				estimate: len(ix.lookup(v)),
				bounds:   fmt.Sprintf("%s = %v", p, v),
				used:     []string{p},
			})
		}
		for _, fc := range contains {
			if fc.Path != p || fc.Value == nil {
				continue
			}
			candidates = append(candidates, &planAccess{
				kind: "hash-contains", hash: ix, hashValue: fc.Value,
				estimate: len(ix.lookup(fc.Value)),
				bounds:   fmt.Sprintf("%s contains %v", p, fc.Value),
				used:     []string{p},
			})
		}
	}

	// Ordered indexes: equality prefix, then one range or $in component.
	orderedNames := make([]string, 0, len(c.ordered))
	for n := range c.ordered {
		orderedNames = append(orderedNames, n)
	}
	sort.Strings(orderedNames)
	for _, name := range orderedNames {
		ox := c.ordered[name]
		if acc := c.planOrderedLocked(ox, eq, rangeFor, inFor); acc != nil {
			candidates = append(candidates, acc)
		} else if sortEligible && pathsEqual(sortPaths, ox.paths) && !ox.multikey {
			// No usable constraint, but a full in-order index walk can
			// still satisfy the sort (estimate: every document). The
			// region spans every key: each starts with a component tag
			// below keyTagEnd, so string(keyTagEnd) bounds them all.
			candidates = append(candidates, &planAccess{
				kind: "ordered", ord: ox,
				lo: "", hi: string(byte(keyTagEnd)), estimate: ox.nids,
				bounds:   "full index scan",
				sortable: true,
			})
		}
	}
	// Hash-range fallback: only when nothing else applies at all. This
	// is the legacy behavior — materialize the ids by walking every
	// bucket in value order — and it is exactly the walk an ordered
	// index on the path avoids, so any other candidate suppresses it.
	if len(candidates) == 0 {
		for _, rc := range ranges {
			ix, ok := c.indexes[rc.Path]
			if !ok {
				continue
			}
			ids := ix.rangeLookup(rc)
			candidates = append(candidates, &planAccess{
				kind: "hash-range", hash: ix, rangeIDs: ids,
				estimate: len(ids),
				bounds:   rangeBoundString(rc.Path, rc),
				used:     []string{rc.Path},
			})
		}
	}

	for _, acc := range candidates {
		if acc.kind == "ordered" && acc.ord != nil {
			acc.sortable = acc.sortable ||
				(sortEligible && pathsEqual(sortPaths, acc.ord.paths) && !acc.ord.multikey)
		}
	}

	// Record everything considered (sorted by name for stable Explain).
	for _, acc := range candidates {
		plan.considered = append(plan.considered, consideredAccess{
			index: accessIndexName(acc), kind: acc.kind, estimate: acc.estimate,
		})
	}
	sort.Slice(plan.considered, func(i, j int) bool {
		a, b := plan.considered[i], plan.considered[j]
		if a.index != b.index {
			return a.index < b.index
		}
		return a.kind < b.kind
	})

	// Hint: force the named index when it produced a candidate.
	if opts != nil && opts.Hint != "" {
		for _, acc := range candidates {
			if accessIndexName(acc) == opts.Hint {
				c.adoptAccess(plan, acc, sortEligible, uniformDesc)
				plan.hinted = true
				return plan
			}
		}
		// An ordered hint with no constraint-derived access still forces
		// a full index scan — same plan on every shard regardless of
		// per-shard statistics.
		if ox, ok := c.ordered[opts.Hint]; ok {
			acc := &planAccess{
				kind: "ordered", ord: ox, estimate: ox.nids,
				hi:       string(byte(keyTagEnd)), // every key sorts below the bare end tag
				bounds:   "full index scan",
				sortable: sortEligible && pathsEqual(sortPaths, ox.paths) && !ox.multikey,
			}
			c.adoptAccess(plan, acc, sortEligible, uniformDesc)
			plan.hinted = true
			return plan
		}
	}

	var best *planAccess
	for _, acc := range candidates {
		if best == nil || betterAccess(acc, best) {
			best = acc
		}
	}
	if best == nil {
		return plan
	}
	// A full scan wins unless the index is strictly cheaper or throws in
	// the sort for free.
	if best.estimate >= plan.ndocs && !best.sortable {
		return plan
	}
	c.adoptAccess(plan, best, sortEligible, uniformDesc)
	return plan
}

// adoptAccess installs an access path into the plan.
func (c *Collection) adoptAccess(plan *queryPlan, acc *planAccess, sortEligible, desc bool) {
	plan.mode = "index"
	plan.access = acc
	plan.estimate = acc.estimate
	if acc.sortable && sortEligible {
		plan.sortSatisfied = true
		plan.reverse = desc
	}
}

// betterAccess orders candidate access paths: smaller estimate first,
// then sort-satisfying, then stable by name/kind.
func betterAccess(a, b *planAccess) bool {
	if a.estimate != b.estimate {
		return a.estimate < b.estimate
	}
	if a.sortable != b.sortable {
		return a.sortable
	}
	an, bn := accessIndexName(a), accessIndexName(b)
	if an != bn {
		return an < bn
	}
	return a.kind < b.kind
}

func accessIndexName(acc *planAccess) string {
	if acc.ord != nil {
		return acc.ord.name
	}
	return acc.hash.path
}

// planOrderedLocked matches an ordered index against the constraint
// sets: consume equality constraints along the component prefix, then
// optionally one range or $in constraint, and translate them into
// encoded key bounds. Returns nil when no leading component is
// constrained.
func (c *Collection) planOrderedLocked(ox *orderedIndex,
	eq map[string]any,
	rangeFor func(string) (query.RangeConstraint, bool),
	inFor func(string) (query.InConstraint, bool)) *planAccess {

	var prefix []byte
	var used []string
	var boundParts []string
	eqCols := 0
	for _, p := range ox.paths {
		v, ok := eq[p]
		if !ok {
			break
		}
		prefix = encodeKey(prefix, v)
		used = append(used, p)
		boundParts = append(boundParts, fmt.Sprintf("%s = %v", p, v))
		eqCols++
	}

	avg := 1
	if len(ox.entries) > 0 {
		avg = (ox.nids + len(ox.entries) - 1) / len(ox.entries)
	}
	regionEstimate := func(lo, hi, hiPrefix string) int {
		keys := ox.sortedKeys()
		start, end := ox.keyRange(keys, lo, hi, hiPrefix)
		if end-start == 1 {
			// A single key: its bucket size is the exact count.
			return len(ox.entries[keys[start]].ids)
		}
		return (end - start) * avg
	}

	// Full-tuple equality: a single bucket probe.
	if eqCols == len(ox.paths) {
		key := string(prefix)
		est := 0
		if b, ok := ox.entries[key]; ok {
			est = len(b.ids)
		}
		return &planAccess{
			kind: "ordered", ord: ox,
			lo: key, hi: key, hiPrefix: key,
			estimate: est,
			bounds:   strings.Join(boundParts, ", "),
			used:     used,
			sortable: false, // set by the caller from the sort spec
		}
	}

	next := ox.paths[eqCols]

	// $in on the next component: one point region per member. Regions
	// are sorted and deduplicated, so concatenating them preserves
	// index order.
	if ic, ok := inFor(next); ok {
		regions := make([]string, 0, len(ic.Values))
		for _, v := range ic.Values {
			regions = append(regions, string(encodeKey(append([]byte{}, prefix...), v)))
		}
		regions = dedupeSortedStrings(regions)
		est := 0
		for _, r := range regions {
			est += regionEstimate(r, r, r)
		}
		return &planAccess{
			kind: "ordered", ord: ox,
			inKeys:   regions,
			estimate: est,
			bounds:   appendBound(boundParts, fmt.Sprintf("%s in (%d values)", next, len(ic.Values))),
			used:     append(used, next),
		}
	}

	// Range on the next component. The bounds are clamped to the bound
	// value's type class, mirroring cmpPred's same-class rule; document
	// and fallback-class bounds are skipped because Compare's "other"
	// rank is not contiguous with the document rank.
	if rc, ok := rangeFor(next); ok {
		classOK := func(v any) bool {
			switch keyTagOf(v) {
			case keyTagNull, keyTagNumber, keyTagString, keyTagBool, keyTagArray:
				return true
			}
			return false
		}
		// On a multikey index a two-sided range is unsound as one
		// contiguous region: cmpPred is per-element, so one array element
		// may satisfy the min bound while a different element satisfies
		// the max. Degrade to the min bound alone — still a superset
		// (the matching element's key lies past lo), and the residual
		// filter re-verifies every candidate.
		rc := rc
		if ox.multikey && rc.HasMin && rc.HasMax {
			rc.HasMax = false
			rc.MaxOpen = false
			rc.Max = nil
		}
		usable := (!rc.HasMin || classOK(rc.Min)) && (!rc.HasMax || classOK(rc.Max))
		if usable && (rc.HasMin || rc.HasMax) {
			classOf := func(v any) byte { return keyTagOf(v) }
			var class byte
			if rc.HasMin {
				class = classOf(rc.Min)
			} else {
				class = classOf(rc.Max)
			}
			lo := string(prefix) + string(class)
			if rc.HasMin {
				lo = string(encodeKey(append([]byte{}, prefix...), rc.Min))
				if rc.MinOpen {
					// Bump past every key whose component equals Min.
					lo += string(byte(keyTagEnd))
				}
			}
			hi := string(prefix) + string(class+1)
			hiPrefix := ""
			if rc.HasMax {
				hi = string(encodeKey(append([]byte{}, prefix...), rc.Max))
				if !rc.MaxOpen {
					hiPrefix = hi
				}
			}
			return &planAccess{
				kind: "ordered", ord: ox,
				lo: lo, hi: hi, hiPrefix: hiPrefix,
				estimate: regionEstimate(lo, hi, hiPrefix),
				bounds:   appendBound(boundParts, rangeBoundString(next, rc)),
				used:     append(used, next),
			}
		}
	}

	// Equality-only prefix (shorter than the tuple): a prefix region.
	if eqCols > 0 {
		key := string(prefix)
		return &planAccess{
			kind: "ordered", ord: ox,
			lo: key, hi: key, hiPrefix: key,
			estimate: regionEstimate(key, key, key),
			bounds:   strings.Join(boundParts, ", "),
			used:     used,
		}
	}
	return nil
}

func appendBound(parts []string, last string) string {
	if len(parts) == 0 {
		return last
	}
	return strings.Join(parts, ", ") + ", " + last
}

func rangeBoundString(path string, rc query.RangeConstraint) string {
	lo, hi := "-inf", "+inf"
	lob, hib := "[", "]"
	if rc.HasMin {
		lo = fmt.Sprintf("%v", rc.Min)
		if rc.MinOpen {
			lob = "("
		}
	} else {
		lob = "("
	}
	if rc.HasMax {
		hi = fmt.Sprintf("%v", rc.Max)
		if rc.MaxOpen {
			hib = ")"
		}
	} else {
		hib = ")"
	}
	return fmt.Sprintf("%s %s%s, %s%s", path, lob, lo, hi, hib)
}

func pathsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// candidateIDsLocked materializes the (unverified, deduplicated)
// candidate id set for an index access path. Caller holds c.mu.
func (c *Collection) candidateIDsLocked(acc *planAccess) map[string]struct{} {
	switch acc.kind {
	case "hash-eq", "hash-contains":
		ids := acc.hash.lookup(acc.hashValue)
		if ids == nil {
			return map[string]struct{}{}
		}
		return ids
	case "hash-range":
		if acc.rangeIDs == nil {
			return map[string]struct{}{}
		}
		return acc.rangeIDs
	case "ordered":
		out := make(map[string]struct{})
		collect := func(lo, hi, hiPrefix string) {
			keys := acc.ord.sortedKeys()
			start, end := acc.ord.keyRange(keys, lo, hi, hiPrefix)
			for _, k := range keys[start:end] {
				for id := range acc.ord.entries[k].ids {
					out[id] = struct{}{}
				}
			}
		}
		if acc.inKeys != nil {
			for _, r := range acc.inKeys {
				collect(r, r, r)
			}
			return out
		}
		collect(acc.lo, acc.hi, acc.hiPrefix)
		return out
	}
	return map[string]struct{}{}
}

// orderedEmitLocked walks the chosen ordered-index region in index
// order (reversed when reverse is set), emitting matching document ids:
// within a bucket, ids come out in insertion-sequence order, which
// matches SortDocs' stable tie-breaking. Emission stops early once the
// caller has seen skip+limit matches (fn returns false). Only valid for
// non-multikey plans (each document appears under exactly one key).
func (c *Collection) orderedEmitLocked(acc *planAccess, reverse bool, fn func(id string) bool) {
	keys := acc.ord.sortedKeys()
	var regions [][2]int
	if acc.inKeys != nil {
		for _, r := range acc.inKeys {
			s, e := acc.ord.keyRange(keys, r, r, r)
			regions = append(regions, [2]int{s, e})
		}
	} else {
		s, e := acc.ord.keyRange(keys, acc.lo, acc.hi, acc.hiPrefix)
		regions = append(regions, [2]int{s, e})
	}
	emitBucket := func(k string) bool {
		b := acc.ord.entries[k]
		ids := make([]string, 0, len(b.ids))
		for id := range b.ids {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return c.pos[ids[i]] < c.pos[ids[j]] })
		for _, id := range ids {
			if !fn(id) {
				return false
			}
		}
		return true
	}
	if reverse {
		for ri := len(regions) - 1; ri >= 0; ri-- {
			for i := regions[ri][1] - 1; i >= regions[ri][0]; i-- {
				if !emitBucket(keys[i]) {
					return
				}
			}
		}
		return
	}
	for _, reg := range regions {
		for i := reg[0]; i < reg[1]; i++ {
			if !emitBucket(keys[i]) {
				return
			}
		}
	}
}

// explainDocLocked renders a plan as a wire-safe document (the payload
// behind $explain). Caller holds c.mu.
func (c *Collection) explainDocLocked(plan *queryPlan) document.D {
	d := document.D{
		"collection":           c.name,
		"mode":                 plan.mode,
		"ndocs":                int64(plan.ndocs),
		"estimated_candidates": int64(plan.estimate),
		"sort_satisfied":       plan.sortSatisfied,
		"reverse":              plan.reverse,
		"hinted":               plan.hinted,
	}
	if plan.access != nil {
		d["index"] = accessIndexName(plan.access)
		d["index_kind"] = accessKindLabel(plan.access.kind)
		d["bounds"] = plan.access.bounds
		residual := residualPaths(plan)
		rp := make([]any, len(residual))
		for i, p := range residual {
			rp[i] = p
		}
		d["residual_paths"] = rp
	}
	considered := make([]any, 0, len(plan.considered))
	for _, ca := range plan.considered {
		considered = append(considered, document.D{
			"index":    ca.index,
			"kind":     accessKindLabel(ca.kind),
			"estimate": int64(ca.estimate),
		})
	}
	d["considered"] = considered
	return d
}

func accessKindLabel(kind string) string {
	if kind == "ordered" {
		return "ordered"
	}
	return "hash"
}

// residualPaths lists constrained paths the chosen access path does not
// consume — the fields the post-access verification filter still has to
// check. (Every path is re-verified regardless; this reports which
// constraints the index itself did not narrow.)
func residualPaths(plan *queryPlan) []string {
	if plan.access == nil {
		return nil
	}
	usedSet := make(map[string]struct{}, len(plan.access.used))
	for _, p := range plan.access.used {
		usedSet[p] = struct{}{}
	}
	seen := make(map[string]struct{})
	var out []string
	add := func(p string) {
		if _, u := usedSet[p]; u {
			return
		}
		if _, dup := seen[p]; dup {
			return
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	for _, p := range plan.constraintPaths {
		add(p)
	}
	sort.Strings(out)
	return out
}

// planSummary is the compact plan rendering that lands in the slow-query
// trace detail.
func (plan *queryPlan) planSummary() string {
	switch plan.mode {
	case "scan":
		return "scan"
	case "id":
		return "id"
	}
	s := "index:" + accessIndexName(plan.access)
	if plan.sortSatisfied {
		s += "+sort"
	}
	return s
}

// notePlan bumps the planner decision counters. Safe to call while
// holding c.mu: the registry pointers are read atomically and counters
// are lock-free.
func (c *Collection) notePlan(plan *queryPlan) {
	if c.store == nil {
		return
	}
	reg, _ := c.store.metrics()
	if reg == nil {
		return
	}
	switch plan.mode {
	case "index":
		reg.Counter("datastore.planner.index_scans").Inc()
	case "id":
		reg.Counter("datastore.planner.id_lookups").Inc()
	default:
		reg.Counter("datastore.planner.full_scans").Inc()
	}
	if plan.sortSatisfied {
		reg.Counter("datastore.planner.sort_satisfied").Inc()
	}
	reg.Counter("datastore.planner.estimated_candidates").Add(uint64(plan.estimate))
}

// Explain compiles the query exactly as Find would and returns the
// planner's decision — chosen index, key bounds, residual filter paths,
// sort satisfaction, and every candidate considered — without executing
// anything.
func (c *Collection) Explain(filter document.D, opts *FindOpts) (document.D, error) {
	flt, err := query.Compile(filter)
	if err != nil {
		return nil, err
	}
	var sortKeys []query.SortKey
	if opts != nil {
		if _, err := query.CompileProjection(opts.Projection); err != nil {
			return nil, err
		}
		sortKeys, err = query.ParseSort(opts.Sort)
		if err != nil {
			return nil, err
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.store != nil {
		if reg, _ := c.store.metrics(); reg != nil {
			reg.Counter("datastore.planner.explains").Inc()
		}
	}
	if _, handled := c.idLookupLocked(flt); handled {
		return document.D{
			"collection":           c.name,
			"mode":                 "id",
			"ndocs":                int64(len(c.docs)),
			"estimated_candidates": int64(1),
			"sort_satisfied":       false,
			"reverse":              false,
			"hinted":               false,
			"considered":           []any{},
		}, nil
	}
	plan := c.planQueryLocked(flt, sortKeys, opts)
	return c.explainDocLocked(plan), nil
}
