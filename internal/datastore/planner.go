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
// Every secondary index is an ordered keyenc index (index.go). An index
// answers an equality prefix along its component paths, then one more
// component constrained by a range, a $in list or a $all element. Each
// $all element is its own candidate: a point region for that value
// (contains on a multikey path is an element-key lookup).
//
// Cost model (deterministic, pinned by the golden Explain tests):
//
//	scan               len(docs)
//	whole key          len(bucket)           (exact, one map probe)
//	prefix             keysInRange × ceil(nids/entries)
//	range              keysInRange × ceil(nids/entries)
//	$in                Σ per-member region estimates
//
// A whole key is a full-tuple equality, or a $all element on the last
// component. keysInRange costs two binary searches — the planner never
// walks a candidate range to price it; a region of one key is priced
// by its bucket size. The cheapest estimate wins; ties prefer a
// sort-satisfying plan, then lexicographically smaller index names,
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
	ord *orderedIndex

	// Either point/range bounds or $in point regions.
	lo, hi   string
	hiPrefix string   // inclusive upper bound region (encoded prefix)
	inKeys   []string // sorted encoded prefixes, one region per $in member
	// point marks lo as a whole key: the region is exactly lo's bucket,
	// read by one map probe.
	point bool

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
	var contains []query.ContainsConstraint
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
	for _, name := range c.indexNamesLocked() {
		ox := c.ordered[name]
		if accs := c.planOrderedLocked(ox, eq, contains, rangeFor, inFor); len(accs) > 0 {
			candidates = append(candidates, accs...)
		} else if sortEligible && pathsEqual(sortPaths, ox.paths) && !ox.multikey {
			// No usable constraint, but a full in-order index walk can
			// still satisfy the sort (estimate: every document). The
			// region spans every key: each starts with a component tag
			// below keyTagEnd, so string(keyTagEnd) bounds them all.
			candidates = append(candidates, &planAccess{
				ord: ox,
				lo:  "", hi: string(byte(keyTagEnd)), estimate: ox.nids,
				bounds:   "full index scan",
				sortable: true,
			})
		}
	}

	// Candidates come out grouped by index name in sorted order, which
	// keeps the considered list (and Explain) stable.
	for _, acc := range candidates {
		acc.sortable = acc.sortable ||
			(sortEligible && pathsEqual(sortPaths, acc.ord.paths) && !acc.ord.multikey)
		plan.considered = append(plan.considered, consideredAccess{index: acc.ord.name, estimate: acc.estimate})
	}

	// Hint: force the named index's best candidate when it produced one.
	if opts != nil && opts.Hint != "" {
		var hinted *planAccess
		for _, acc := range candidates {
			if acc.ord.name == opts.Hint && (hinted == nil || betterAccess(acc, hinted)) {
				hinted = acc
			}
		}
		if hinted != nil {
			c.adoptAccess(plan, hinted, sortEligible, uniformDesc)
			plan.hinted = true
			return plan
		}
		// A hint with no constraint-derived access still forces a full
		// index scan — same plan on every shard regardless of per-shard
		// statistics.
		if ox, ok := c.ordered[opts.Hint]; ok {
			acc := &planAccess{
				ord: ox, estimate: ox.nids,
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
// then sort-satisfying, then by index name.
func betterAccess(a, b *planAccess) bool {
	if a.estimate != b.estimate {
		return a.estimate < b.estimate
	}
	if a.sortable != b.sortable {
		return a.sortable
	}
	return a.ord.name < b.ord.name
}

// planOrderedLocked matches an index against the constraint sets:
// consume equality constraints along the component prefix, then
// optionally one range or $in constraint, and translate them into
// encoded key bounds. Each $all element on that next component adds its
// own candidate, a point region for the value. Returns nil when no
// leading component is constrained.
func (c *Collection) planOrderedLocked(ox *orderedIndex,
	eq map[string]any,
	contains []query.ContainsConstraint,
	rangeFor func(string) (query.RangeConstraint, bool),
	inFor func(string) (query.InConstraint, bool)) []*planAccess {

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
	// keyRegion is the region of keys starting with key. When key holds
	// every component it is a whole key: the region is its one bucket.
	keyRegion := func(key string, whole bool, bounds string, used []string) *planAccess {
		acc := &planAccess{ord: ox, lo: key, hi: key, hiPrefix: key, point: whole, bounds: bounds, used: used}
		switch b := ox.entries[key]; {
		case !whole:
			acc.estimate = regionEstimate(key, key, key)
		case b != nil:
			acc.estimate = len(b.ids)
		}
		return acc
	}

	// Full-tuple equality: a single bucket probe.
	if eqCols == len(ox.paths) {
		return []*planAccess{keyRegion(string(prefix), true, strings.Join(boundParts, ", "), used)}
	}

	next := ox.paths[eqCols]
	nextUsed := append(used[:len(used):len(used)], next)
	var out []*planAccess

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
		out = append(out, &planAccess{
			ord:      ox,
			inKeys:   regions,
			estimate: est,
			bounds:   appendBound(boundParts, fmt.Sprintf("%s in (%d values)", next, len(ic.Values))),
			used:     nextUsed,
		})
	} else if acc := rangeAccess(ox, prefix, boundParts, next, nextUsed, rangeFor, regionEstimate); acc != nil {
		out = append(out, acc)
	} else if eqCols > 0 {
		// Equality-only prefix (shorter than the tuple): a prefix region.
		out = append(out, keyRegion(string(prefix), false, strings.Join(boundParts, ", "), used))
	}

	// $all elements on the next component, one candidate each. A
	// matching document holds the value itself or an array with an
	// element equal to it, and both are keys of the value's region.
	whole := eqCols+1 == len(ox.paths)
	for _, fc := range contains {
		if fc.Path != next {
			continue
		}
		key := string(encodeKey(append([]byte{}, prefix...), fc.Value))
		out = append(out, keyRegion(key, whole, appendBound(boundParts, fmt.Sprintf("%s contains %v", next, fc.Value)), nextUsed))
	}
	return out
}

// rangeAccess plans a range constraint on component next after the
// encoded equality prefix, or returns nil when there is none it can
// use. The bounds are clamped to the bound value's type class,
// mirroring cmpPred's same-class rule; document and fallback-class
// bounds are skipped because Compare's "other" rank is not contiguous
// with the document rank.
func rangeAccess(ox *orderedIndex, prefix []byte, boundParts []string, next string, used []string,
	rangeFor func(string) (query.RangeConstraint, bool),
	regionEstimate func(lo, hi, hiPrefix string) int) *planAccess {
	rc, ok := rangeFor(next)
	if !ok {
		return nil
	}
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
	if ox.multikey && rc.HasMin && rc.HasMax {
		rc.HasMax = false
		rc.MaxOpen = false
		rc.Max = nil
	}
	usable := (!rc.HasMin || classOK(rc.Min)) && (!rc.HasMax || classOK(rc.Max))
	if !usable || !(rc.HasMin || rc.HasMax) {
		return nil
	}
	var class byte
	if rc.HasMin {
		class = keyTagOf(rc.Min)
	} else {
		class = keyTagOf(rc.Max)
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
		ord: ox,
		lo:  lo, hi: hi, hiPrefix: hiPrefix,
		estimate: regionEstimate(lo, hi, hiPrefix),
		bounds:   appendBound(boundParts, rangeBoundString(next, rc)),
		used:     used,
	}
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

// scanLocked evaluates a compiled filter and returns matching ids in
// insertion order. The caller must hold at least a read lock.
//
// Planning: _id equality resolves directly; otherwise planQueryLocked
// estimates a cardinality for every usable index region and the
// cheapest access path's candidates are verified against the full
// filter. With no usable index the whole collection is scanned.
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

// candidateIDsLocked materializes the (unverified, deduplicated)
// candidate id set for an index access path. A region of one key
// returns that bucket's own id set, which callers must not modify.
// Caller holds c.mu.
func (c *Collection) candidateIDsLocked(acc *planAccess) map[string]struct{} {
	ox := acc.ord
	if acc.point {
		if b := ox.entries[acc.lo]; b != nil {
			return b.ids
		}
		return map[string]struct{}{}
	}
	keys := ox.sortedKeys()
	if acc.inKeys == nil {
		if start, end := ox.keyRange(keys, acc.lo, acc.hi, acc.hiPrefix); end-start == 1 {
			return ox.entries[keys[start]].ids
		}
	}
	out := make(map[string]struct{})
	collect := func(lo, hi, hiPrefix string) {
		start, end := ox.keyRange(keys, lo, hi, hiPrefix)
		for _, k := range keys[start:end] {
			for id := range ox.entries[k].ids {
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
		d["index"] = plan.access.ord.name
		d["index_kind"] = "ordered"
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
			"kind":     "ordered",
			"estimate": int64(ca.estimate),
		})
	}
	d["considered"] = considered
	return d
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
	s := "index:" + plan.access.ord.name
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
