// Package query implements the MongoDB-style query language used by the
// datastore: filter documents with comparison, array, logical, and element
// operators; atomic update documents ($set, $inc, $push, ...); field
// projections; and multi-key sorts.
//
// The paper quotes the operator surface directly — e.g. selecting jobs
// "for crystals containing both lithium and oxygen atoms with less than
// 200 electrons" via
//
//	{elements: {$all: ['Li','O']}, nelectrons: {$lte: 200}}
//
// and Fuse parameter overrides expressed "similar to Mongo atomic update
// syntax (e.g. $set, $unset, etc.)". This package provides exactly that
// surface.
package query

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"matproj/internal/document"
)

// Filter is a compiled query filter. Compile once, match many times.
type Filter struct {
	root matcher
	// fields lists the top-level dotted field paths that participate in
	// equality or range constraints, used for index selection.
	fields []fieldConstraint
}

// ConstraintKind classifies how a filter constrains a field, for the
// benefit of index selection in the datastore.
type ConstraintKind int

const (
	// ConstraintEquality means the filter pins the field to one value.
	ConstraintEquality ConstraintKind = iota
	// ConstraintRange means the filter bounds the field ($lt/$lte/$gt/$gte).
	ConstraintRange
	// ConstraintContains means the field (an array) must contain a value
	// ($all members, $in single-element).
	ConstraintContains
	// ConstraintIn means the field's value must equal one of a list of
	// values ($in), usable as a set of point lookups by ordered indexes.
	ConstraintIn
)

// fieldConstraint records one index-usable constraint.
type fieldConstraint struct {
	Path  string
	Kind  ConstraintKind
	Value any // equality or contains value; nil for pure ranges
	// Range bounds; nil pointer means unbounded on that side.
	Min, Max         any
	MinOpen, MaxOpen bool // true when the bound is exclusive
	hasMin, hasMax   bool
	// Values holds the $in membership list (ConstraintIn only).
	Values []any
}

// matcher is the compiled form of one predicate.
type matcher interface {
	matches(doc document.D) bool
}

// Compile validates and compiles a filter document. An empty or nil filter
// matches every document.
func Compile(f document.D) (*Filter, error) {
	f = document.NormalizeDoc(f)
	root, constraints, err := compileClause(map[string]any(f))
	if err != nil {
		return nil, err
	}
	return &Filter{root: root, fields: constraints}, nil
}

// MustCompile is Compile that panics on error; for fixed filters in tests
// and examples.
func MustCompile(f document.D) *Filter {
	c, err := Compile(f)
	if err != nil {
		panic(err)
	}
	return c
}

// Matches reports whether doc satisfies the filter.
func (f *Filter) Matches(doc document.D) bool {
	if f == nil || f.root == nil {
		return true
	}
	return f.root.matches(doc)
}

// EqualityFields returns the dotted paths constrained to a single value,
// with that value. Used for index lookups.
func (f *Filter) EqualityFields() map[string]any {
	out := make(map[string]any)
	for _, c := range f.fields {
		if c.Kind == ConstraintEquality {
			out[c.Path] = c.Value
		}
	}
	return out
}

// ContainsConstraint describes one $all element: the field must equal
// Value or, for an array, hold an element equal to it.
type ContainsConstraint struct {
	Path  string
	Value any
}

// ContainsFields returns dotted paths that must contain given values
// (from $all), one entry per required value.
func (f *Filter) ContainsFields() []ContainsConstraint {
	var out []ContainsConstraint
	for _, c := range f.fields {
		if c.Kind == ConstraintContains {
			out = append(out, ContainsConstraint{Path: c.Path, Value: c.Value})
		}
	}
	return out
}

// InConstraint describes a $in membership constraint: the field must
// equal one of Values. Usable by ordered indexes as point lookups.
type InConstraint struct {
	Path   string
	Values []any
}

// InFields returns dotted paths constrained by $in membership lists.
func (f *Filter) InFields() []InConstraint {
	var out []InConstraint
	for _, c := range f.fields {
		if c.Kind == ConstraintIn {
			out = append(out, InConstraint{Path: c.Path, Values: c.Values})
		}
	}
	return out
}

// RangeFields returns dotted paths constrained by comparison bounds.
func (f *Filter) RangeFields() []RangeConstraint {
	var out []RangeConstraint
	for _, c := range f.fields {
		if c.Kind == ConstraintRange {
			out = append(out, RangeConstraint{
				Path: c.Path,
				Min:  c.Min, Max: c.Max,
				MinOpen: c.MinOpen, MaxOpen: c.MaxOpen,
				HasMin: c.hasMin, HasMax: c.hasMax,
			})
		}
	}
	return out
}

// RangeConstraint describes a bound on one field usable by ordered indexes.
type RangeConstraint struct {
	Path             string
	Min, Max         any
	MinOpen, MaxOpen bool
	HasMin, HasMax   bool
}

// allMatcher combines sub-matchers conjunctively.
type allMatcher struct{ subs []matcher }

func (m allMatcher) matches(d document.D) bool {
	for _, s := range m.subs {
		if !s.matches(d) {
			return false
		}
	}
	return true
}

type anyMatcher struct{ subs []matcher }

func (m anyMatcher) matches(d document.D) bool {
	for _, s := range m.subs {
		if s.matches(d) {
			return true
		}
	}
	return false
}

type notMatcher struct{ sub matcher }

func (m notMatcher) matches(d document.D) bool { return !m.sub.matches(d) }

// fieldMatcher applies a value predicate at a dotted path with MongoDB
// array semantics: if the resolved value is an array and the predicate is
// not itself array-aware, the predicate matches if any element matches or
// if the array as a whole matches. The dotted path is split once, at
// compile time, not per document.
type fieldMatcher struct {
	segs []string
	pred valuePred
}

// valuePred tests a resolved field value. exists reports whether the path
// resolved at all.
type valuePred interface {
	test(v any, exists bool) bool
	// arrayAware predicates receive arrays whole ($all, $size, $elemMatch).
	arrayAware() bool
}

func (m fieldMatcher) matches(d document.D) bool {
	v, ok := d.Lookup(m.segs)
	if m.pred.arrayAware() {
		return m.pred.test(v, ok)
	}
	if arr, isArr := v.([]any); isArr && ok {
		// Whole-array match first (e.g. {tags: ["a","b"]} equality), then
		// per-element.
		if m.pred.test(arr, true) {
			return true
		}
		for _, el := range arr {
			if m.pred.test(el, true) {
				return true
			}
		}
		return false
	}
	return m.pred.test(v, ok)
}

// compileClause compiles a map of field -> condition plus logical
// operators into a conjunction.
func compileClause(clause map[string]any) (matcher, []fieldConstraint, error) {
	var subs []matcher
	var constraints []fieldConstraint
	// Deterministic compile order for reproducible error messages.
	keys := make([]string, 0, len(clause))
	for k := range clause {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		val := clause[key]
		switch key {
		case "$and", "$or", "$nor":
			arr, ok := val.([]any)
			if !ok || len(arr) == 0 {
				return nil, nil, fmt.Errorf("query: %s requires a non-empty array", key)
			}
			var inner []matcher
			for i, el := range arr {
				m, ok := el.(map[string]any)
				if !ok {
					return nil, nil, fmt.Errorf("query: %s[%d] must be a document", key, i)
				}
				sub, subCons, err := compileClause(m)
				if err != nil {
					return nil, nil, err
				}
				inner = append(inner, sub)
				if key == "$and" {
					constraints = append(constraints, subCons...)
				}
			}
			switch key {
			case "$and":
				subs = append(subs, allMatcher{inner})
			case "$or":
				subs = append(subs, anyMatcher{inner})
			case "$nor":
				subs = append(subs, notMatcher{anyMatcher{inner}})
			}
		case "$not":
			return nil, nil, fmt.Errorf("query: $not is only valid inside a field condition")
		default:
			if strings.HasPrefix(key, "$") {
				return nil, nil, fmt.Errorf("query: unknown top-level operator %q", key)
			}
			pred, cons, err := compileCondition(key, val)
			if err != nil {
				return nil, nil, err
			}
			subs = append(subs, fieldMatcher{segs: document.SplitPath(key), pred: pred})
			constraints = append(constraints, cons...)
		}
	}
	if len(subs) == 1 {
		return subs[0], constraints, nil
	}
	return allMatcher{subs}, constraints, nil
}

// compileCondition compiles the condition for one field: either a literal
// (implicit $eq) or an operator document {$gte: 3, $lt: 10}.
func compileCondition(path string, cond any) (valuePred, []fieldConstraint, error) {
	opDoc, isOps := cond.(map[string]any)
	if isOps && hasOperatorKey(opDoc) {
		return compileOperators(path, opDoc)
	}
	// Literal equality (documents without $-keys compare structurally).
	c := fieldConstraint{Path: path, Kind: ConstraintEquality, Value: cond}
	return eqPred{cond}, []fieldConstraint{c}, nil
}

func hasOperatorKey(m map[string]any) bool {
	for k := range m {
		if strings.HasPrefix(k, "$") {
			return true
		}
	}
	return false
}

func compileOperators(path string, ops map[string]any) (valuePred, []fieldConstraint, error) {
	var preds []valuePred
	var constraints []fieldConstraint
	rangeCon := fieldConstraint{Path: path, Kind: ConstraintRange}
	keys := make([]string, 0, len(ops))
	for k := range ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, op := range keys {
		arg := ops[op]
		switch op {
		case "$eq":
			preds = append(preds, eqPred{arg})
			constraints = append(constraints, fieldConstraint{Path: path, Kind: ConstraintEquality, Value: arg})
		case "$ne":
			preds = append(preds, nePred{arg})
		case "$gt", "$gte", "$lt", "$lte":
			preds = append(preds, cmpPred{op: op, arg: arg})
			switch op {
			case "$gt":
				rangeCon.Min, rangeCon.MinOpen, rangeCon.hasMin = arg, true, true
			case "$gte":
				rangeCon.Min, rangeCon.MinOpen, rangeCon.hasMin = arg, false, true
			case "$lt":
				rangeCon.Max, rangeCon.MaxOpen, rangeCon.hasMax = arg, true, true
			case "$lte":
				rangeCon.Max, rangeCon.MaxOpen, rangeCon.hasMax = arg, false, true
			}
		case "$in", "$nin":
			arr, ok := arg.([]any)
			if !ok {
				return nil, nil, fmt.Errorf("query: %s requires an array (field %q)", op, path)
			}
			if op == "$in" {
				preds = append(preds, inPred{arr})
				constraints = append(constraints, fieldConstraint{Path: path, Kind: ConstraintIn, Values: arr})
			} else {
				preds = append(preds, notPred{inPred{arr}})
			}
		case "$all":
			arr, ok := arg.([]any)
			if !ok {
				return nil, nil, fmt.Errorf("query: $all requires an array (field %q)", path)
			}
			preds = append(preds, allPred{arr})
			for _, v := range arr {
				constraints = append(constraints, fieldConstraint{Path: path, Kind: ConstraintContains, Value: v})
			}
		case "$exists":
			want, ok := arg.(bool)
			if !ok {
				return nil, nil, fmt.Errorf("query: $exists requires a boolean (field %q)", path)
			}
			preds = append(preds, existsPred{want})
		case "$size":
			n, ok := arg.(int64)
			if !ok {
				return nil, nil, fmt.Errorf("query: $size requires an integer (field %q)", path)
			}
			preds = append(preds, sizePred{int(n)})
		case "$elemMatch":
			sub, ok := arg.(map[string]any)
			if !ok {
				return nil, nil, fmt.Errorf("query: $elemMatch requires a document (field %q)", path)
			}
			// $elemMatch supports two forms: a clause over document
			// elements ({state: "done"}) or a bare operator document
			// applied to scalar elements ({$gt: 5}).
			var inner matcher
			var scalarPred valuePred
			if hasOperatorKey(sub) {
				p, _, err := compileOperators(path, sub)
				if err != nil {
					return nil, nil, err
				}
				scalarPred = p
			} else {
				m, _, err := compileClause(sub)
				if err != nil {
					return nil, nil, err
				}
				inner = m
			}
			preds = append(preds, elemMatchPred{inner: inner, scalar: scalarPred})
		case "$regex":
			pat, ok := arg.(string)
			if !ok {
				return nil, nil, fmt.Errorf("query: $regex requires a string pattern (field %q)", path)
			}
			if opts, ok := ops["$options"].(string); ok && strings.Contains(opts, "i") {
				pat = "(?i)" + pat
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, nil, fmt.Errorf("query: $regex %q: %w", pat, err)
			}
			preds = append(preds, regexPred{re})
		case "$options":
			// consumed with $regex
		case "$mod":
			arr, ok := arg.([]any)
			if !ok || len(arr) != 2 {
				return nil, nil, fmt.Errorf("query: $mod requires [divisor, remainder] (field %q)", path)
			}
			div, okD := arr[0].(int64)
			rem, okR := arr[1].(int64)
			if !okD || !okR || div == 0 {
				return nil, nil, fmt.Errorf("query: $mod requires non-zero integer divisor (field %q)", path)
			}
			preds = append(preds, modPred{div, rem})
		case "$type":
			name, ok := arg.(string)
			if !ok {
				return nil, nil, fmt.Errorf("query: $type requires a type name string (field %q)", path)
			}
			preds = append(preds, typePred{name})
		case "$not":
			sub, ok := arg.(map[string]any)
			if !ok {
				return nil, nil, fmt.Errorf("query: $not requires an operator document (field %q)", path)
			}
			inner, _, err := compileOperators(path, sub)
			if err != nil {
				return nil, nil, err
			}
			preds = append(preds, notPred{inner})
		default:
			return nil, nil, fmt.Errorf("query: unknown operator %q (field %q)", op, path)
		}
	}
	if rangeCon.hasMin || rangeCon.hasMax {
		constraints = append(constraints, rangeCon)
	}
	if len(preds) == 1 {
		return preds[0], constraints, nil
	}
	return andPred{preds}, constraints, nil
}

// --- value predicates ---

type eqPred struct{ want any }

func (p eqPred) test(v any, exists bool) bool {
	if !exists {
		// Mongo: {a: null} matches missing fields too.
		return p.want == nil
	}
	return document.Equal(v, p.want)
}
func (p eqPred) arrayAware() bool { return false }

type nePred struct{ want any }

func (p nePred) test(v any, exists bool) bool {
	if !exists {
		return p.want != nil
	}
	if arr, ok := v.([]any); ok {
		if document.Equal(arr, p.want) {
			return false
		}
		for _, el := range arr {
			if document.Equal(el, p.want) {
				return false
			}
		}
		return true
	}
	return !document.Equal(v, p.want)
}
func (p nePred) arrayAware() bool { return true }

type cmpPred struct {
	op  string
	arg any
}

func (p cmpPred) test(v any, exists bool) bool {
	if !exists {
		return false
	}
	// Comparisons only apply within the same type class.
	if document.Compare(v, p.arg) != 0 && typeClass(v) != typeClass(p.arg) {
		return false
	}
	c := document.Compare(v, p.arg)
	switch p.op {
	case "$gt":
		return c > 0
	case "$gte":
		return c >= 0
	case "$lt":
		return c < 0
	case "$lte":
		return c <= 0
	}
	return false
}
func (p cmpPred) arrayAware() bool { return false }

func typeClass(v any) int {
	switch v.(type) {
	case int64, float64:
		return 1
	case string:
		return 2
	case bool:
		return 3
	case nil:
		return 0
	case []any:
		return 4
	default:
		return 5
	}
}

type inPred struct{ set []any }

func (p inPred) test(v any, exists bool) bool {
	if !exists {
		for _, w := range p.set {
			if w == nil {
				return true
			}
		}
		return false
	}
	for _, w := range p.set {
		if document.Equal(v, w) {
			return true
		}
	}
	return false
}
func (p inPred) arrayAware() bool { return false }

// allPred: array field contains every listed value (scalar field matches a
// single-element $all).
type allPred struct{ want []any }

func (p allPred) test(v any, exists bool) bool {
	if !exists {
		return false
	}
	arr, isArr := v.([]any)
	if !isArr {
		arr = []any{v}
	}
	for _, w := range p.want {
		found := false
		for _, el := range arr {
			if document.Equal(el, w) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
func (p allPred) arrayAware() bool { return true }

type existsPred struct{ want bool }

func (p existsPred) test(_ any, exists bool) bool { return exists == p.want }
func (p existsPred) arrayAware() bool             { return true }

type sizePred struct{ n int }

func (p sizePred) test(v any, exists bool) bool {
	arr, ok := v.([]any)
	return exists && ok && len(arr) == p.n
}
func (p sizePred) arrayAware() bool { return true }

type elemMatchPred struct {
	inner  matcher
	scalar valuePred
}

func (p elemMatchPred) test(v any, exists bool) bool {
	arr, ok := v.([]any)
	if !exists || !ok {
		return false
	}
	for _, el := range arr {
		if p.scalar != nil {
			if p.scalar.test(el, true) {
				return true
			}
			continue
		}
		if m, isDoc := el.(map[string]any); isDoc && p.inner.matches(document.D(m)) {
			return true
		}
	}
	return false
}
func (p elemMatchPred) arrayAware() bool { return true }

type regexPred struct{ re *regexp.Regexp }

func (p regexPred) test(v any, exists bool) bool {
	s, ok := v.(string)
	return exists && ok && p.re.MatchString(s)
}
func (p regexPred) arrayAware() bool { return false }

type modPred struct{ div, rem int64 }

func (p modPred) test(v any, exists bool) bool {
	if !exists {
		return false
	}
	f, ok := document.AsFloat(v)
	if !ok {
		return false
	}
	return int64(f)%p.div == p.rem
}
func (p modPred) arrayAware() bool { return false }

type typePred struct{ name string }

func (p typePred) test(v any, exists bool) bool {
	if !exists {
		return false
	}
	switch p.name {
	case "string":
		_, ok := v.(string)
		return ok
	case "int", "long":
		_, ok := v.(int64)
		return ok
	case "double":
		_, ok := v.(float64)
		return ok
	case "number":
		_, ok := document.AsFloat(v)
		return ok
	case "bool":
		_, ok := v.(bool)
		return ok
	case "object":
		_, ok := v.(map[string]any)
		return ok
	case "array":
		_, ok := v.([]any)
		return ok
	case "null":
		return v == nil
	}
	return false
}
func (p typePred) arrayAware() bool { return true }

type notPred struct{ inner valuePred }

func (p notPred) test(v any, exists bool) bool { return !p.inner.test(v, exists) }
func (p notPred) arrayAware() bool             { return p.inner.arrayAware() }

type andPred struct{ preds []valuePred }

func (p andPred) test(v any, exists bool) bool {
	for _, q := range p.preds {
		if q.arrayAware() {
			if !q.test(v, exists) {
				return false
			}
			continue
		}
		if arr, ok := v.([]any); ok && exists {
			matched := q.test(arr, true)
			if !matched {
				for _, el := range arr {
					if q.test(el, true) {
						matched = true
						break
					}
				}
			}
			if !matched {
				return false
			}
			continue
		}
		if !q.test(v, exists) {
			return false
		}
	}
	return true
}
func (p andPred) arrayAware() bool { return true }
