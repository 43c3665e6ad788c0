// Package document implements the JSON-like document model that underlies
// the datastore. A document is a tree of maps, slices, and scalar values,
// mirroring the BSON data model the Materials Project stores in MongoDB.
//
// The package provides deep path access using dotted notation
// ("output.final_energy", "elements.0"), deep copying, structural equality,
// canonical ordering, and the structure statistics (node count, maximum
// depth, mean leaf depth) reported in Table I of the paper.
package document

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// D is a document: the unit of storage in a collection. Keys map to scalar
// values (bool, int64, float64, string, nil), nested documents (D or
// map[string]any), or arrays ([]any).
type D map[string]any

// New returns an empty document.
func New() D { return D{} }

// MustFromJSON is FromJSON that panics on error; intended for tests and
// static fixtures.
func MustFromJSON(data string) D {
	d, err := FromJSON([]byte(data))
	if err != nil {
		panic(err)
	}
	return d
}

// String renders the document as JSON, or a diagnostic on failure.
func (d D) String() string {
	b, err := d.ToJSON()
	if err != nil {
		return fmt.Sprintf("document<error: %v>", err)
	}
	return string(b)
}

// Normalize walks an arbitrary decoded JSON value and canonicalizes it:
// json.Number becomes int64 when integral and float64 otherwise; int, int32,
// uint, float32 and friends widen to int64/float64; maps become
// map[string]any and slices []any. Strings, bools and nil pass through.
func Normalize(v any) any {
	switch x := v.(type) {
	case nil, bool, string:
		return x
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i
		}
		f, err := x.Float64()
		if err != nil {
			return x.String()
		}
		return f
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case int64:
		return x
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		if x > math.MaxInt64 {
			return float64(x)
		}
		return int64(x)
	case float32:
		return float64(x)
	case float64:
		return x
	case D:
		m := make(map[string]any, len(x))
		for k, v := range x {
			m[k] = Normalize(v)
		}
		return m
	case map[string]any:
		m := make(map[string]any, len(x))
		for k, v := range x {
			m[k] = Normalize(v)
		}
		return m
	case []any:
		s := make([]any, len(x))
		for i, v := range x {
			s[i] = Normalize(v)
		}
		return s
	case []string:
		s := make([]any, len(x))
		for i, v := range x {
			s[i] = v
		}
		return s
	case []int:
		s := make([]any, len(x))
		for i, v := range x {
			s[i] = int64(v)
		}
		return s
	case []float64:
		s := make([]any, len(x))
		for i, v := range x {
			s[i] = v
		}
		return s
	case []D:
		s := make([]any, len(x))
		for i, v := range x {
			s[i] = Normalize(v)
		}
		return s
	default:
		// Fall back to a JSON round trip for exotic types (structs etc.).
		b, err := json.Marshal(x)
		if err != nil {
			return fmt.Sprint(x)
		}
		dec := json.NewDecoder(strings.NewReader(string(b)))
		dec.UseNumber()
		var out any
		if err := dec.Decode(&out); err != nil {
			return fmt.Sprint(x)
		}
		return Normalize(out)
	}
}

// NormalizeDoc normalizes every value in d, returning a new document.
// The result is a fresh tree: every map and slice in it is newly built,
// so it never aliases d and needs no further Copy().
func NormalizeDoc(d D) D {
	return D(Normalize(map[string]any(d)).(map[string]any))
}

// Copy returns a deep copy of the document. Mutating the copy never
// affects the original.
func (d D) Copy() D {
	if d == nil {
		return nil
	}
	return D(copyValue(map[string]any(d)).(map[string]any))
}

func copyValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(x))
		for k, v := range x {
			m[k] = copyValue(v)
		}
		return m
	case D:
		m := make(map[string]any, len(x))
		for k, v := range x {
			m[k] = copyValue(v)
		}
		return m
	case []any:
		s := make([]any, len(x))
		for i, v := range x {
			s[i] = copyValue(v)
		}
		return s
	default:
		return x
	}
}

// splitPath splits a dotted path into segments. An empty path yields nil.
func splitPath(path string) []string {
	if path == "" {
		return nil
	}
	return strings.Split(path, ".")
}

// SplitPath splits a dotted path into its segments, for callers that
// resolve the same path against many documents (see Lookup).
func SplitPath(path string) []string { return splitPath(path) }

// Get retrieves the value at a dotted path. Array elements are addressed
// by numeric segments ("sites.0.species"). The second result reports
// whether the full path resolved.
func (d D) Get(path string) (any, bool) {
	var v any = map[string]any(d)
	if path == "" {
		return v, true
	}
	for {
		seg, rest, more := strings.Cut(path, ".")
		var ok bool
		if v, ok = child(v, seg); !ok {
			return nil, false
		}
		if !more {
			return v, true
		}
		path = rest
	}
}

// Lookup is Get over a path already split by SplitPath.
func (d D) Lookup(segs []string) (any, bool) {
	var v any = map[string]any(d)
	for _, seg := range segs {
		var ok bool
		if v, ok = child(v, seg); !ok {
			return nil, false
		}
	}
	return v, true
}

// child resolves one path segment below v.
func child(v any, seg string) (any, bool) {
	switch x := v.(type) {
	case map[string]any:
		c, ok := x[seg]
		return c, ok
	case D:
		c, ok := x[seg]
		return c, ok
	case []any:
		idx, err := strconv.Atoi(seg)
		if err != nil || idx < 0 || idx >= len(x) {
			return nil, false
		}
		return x[idx], true
	}
	return nil, false
}

// GetString returns the string at path, or "" if absent or not a string.
func (d D) GetString(path string) string {
	v, ok := d.Get(path)
	if !ok {
		return ""
	}
	s, _ := v.(string)
	return s
}

// GetFloat returns the numeric value at path widened to float64.
// The bool result is false if the path is missing or non-numeric.
func (d D) GetFloat(path string) (float64, bool) {
	v, ok := d.Get(path)
	if !ok {
		return 0, false
	}
	return AsFloat(v)
}

// GetInt returns the integer at path. Floats with integral values convert.
func (d D) GetInt(path string) (int64, bool) {
	v, ok := d.Get(path)
	if !ok {
		return 0, false
	}
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		if x == math.Trunc(x) {
			return int64(x), true
		}
	}
	return 0, false
}

// GetArray returns the array at path, or nil if absent or not an array.
func (d D) GetArray(path string) []any {
	v, ok := d.Get(path)
	if !ok {
		return nil
	}
	a, _ := v.([]any)
	return a
}

// GetDoc returns the sub-document at path, or nil if absent / wrong type.
func (d D) GetDoc(path string) D {
	v, ok := d.Get(path)
	if !ok {
		return nil
	}
	switch m := v.(type) {
	case map[string]any:
		return D(m)
	case D:
		return m
	}
	return nil
}

// AsFloat widens any numeric value to float64.
func AsFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case int:
		return float64(x), true
	case float32:
		return float64(x), true
	}
	return 0, false
}

// Set stores a value at a dotted path, creating intermediate documents as
// needed. Numeric segments index into existing arrays; a numeric segment
// that points one past the end of an array appends. Setting through a
// scalar replaces it with a document.
func (d D) Set(path string, value any) error {
	segs := splitPath(path)
	if len(segs) == 0 {
		return fmt.Errorf("document: empty path")
	}
	return setPath(map[string]any(d), segs, Normalize(value))
}

func setPath(container any, segs []string, value any) error {
	seg, rest := segs[0], segs[1:]
	switch x := container.(type) {
	case map[string]any:
		if len(rest) == 0 {
			x[seg] = value
			return nil
		}
		child, ok := x[seg]
		if !ok || !isContainer(child) {
			child = nextContainer(rest[0])
			x[seg] = child
		}
		// Arrays are values in the map: setPath on a slice may need to grow
		// it, so re-store after the recursive call via pointer dance.
		if arr, isArr := child.([]any); isArr {
			newArr, err := setInArray(arr, rest, value)
			if err != nil {
				return err
			}
			x[seg] = newArr
			return nil
		}
		return setPath(child, rest, value)
	case []any:
		_, err := setInArray(x, segs, value)
		return err
	default:
		return fmt.Errorf("document: cannot descend into %T", container)
	}
}

func setInArray(arr []any, segs []string, value any) ([]any, error) {
	seg, rest := segs[0], segs[1:]
	idx, err := strconv.Atoi(seg)
	if err != nil || idx < 0 {
		return arr, fmt.Errorf("document: invalid array index %q", seg)
	}
	if idx > len(arr) {
		return arr, fmt.Errorf("document: array index %d out of range (len %d)", idx, len(arr))
	}
	if idx == len(arr) {
		arr = append(arr, nil)
	}
	if len(rest) == 0 {
		arr[idx] = value
		return arr, nil
	}
	child := arr[idx]
	if !isContainer(child) {
		child = nextContainer(rest[0])
		arr[idx] = child
	}
	if inner, isArr := child.([]any); isArr {
		newInner, err := setInArray(inner, rest, value)
		if err != nil {
			return arr, err
		}
		arr[idx] = newInner
		return arr, nil
	}
	return arr, setPath(child, rest, value)
}

func isContainer(v any) bool {
	switch v.(type) {
	case map[string]any, D, []any:
		return true
	}
	return false
}

// nextContainer chooses the container type for an intermediate path
// segment: an array if the next segment is numeric, else a document.
func nextContainer(nextSeg string) any {
	if _, err := strconv.Atoi(nextSeg); err == nil {
		return []any{}
	}
	return map[string]any{}
}

// Unset removes the value at a dotted path. Removing a missing path is a
// no-op. Unsetting an array element removes it and shifts later elements.
func (d D) Unset(path string) {
	segs := splitPath(path)
	if len(segs) == 0 {
		return
	}
	unsetPath(map[string]any(d), segs)
}

func unsetPath(container any, segs []string) {
	seg, rest := segs[0], segs[1:]
	switch x := container.(type) {
	case map[string]any:
		if len(rest) == 0 {
			delete(x, seg)
			return
		}
		child, ok := x[seg]
		if !ok {
			return
		}
		if arr, isArr := child.([]any); isArr {
			x[seg] = unsetInArray(arr, rest)
			return
		}
		unsetPath(child, rest)
	}
}

func unsetInArray(arr []any, segs []string) []any {
	seg, rest := segs[0], segs[1:]
	idx, err := strconv.Atoi(seg)
	if err != nil || idx < 0 || idx >= len(arr) {
		return arr
	}
	if len(rest) == 0 {
		return append(arr[:idx], arr[idx+1:]...)
	}
	child := arr[idx]
	if inner, isArr := child.([]any); isArr {
		arr[idx] = unsetInArray(inner, rest)
		return arr
	}
	unsetPath(child, rest)
	return arr
}

// Has reports whether the dotted path resolves.
func (d D) Has(path string) bool {
	_, ok := d.Get(path)
	return ok
}

// Equal reports deep structural equality of two values under the
// normalized data model. Numeric values compare by value across int64 and
// float64 (3 == 3.0), matching MongoDB semantics.
func Equal(a, b any) bool {
	return Compare(a, b) == 0
}

// typeRank orders values across types for sorting, loosely following the
// BSON comparison order: nil < numbers < strings < documents < arrays <
// booleans.
func typeRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case int64, float64, int, float32:
		return 1
	case string:
		return 2
	case map[string]any, D:
		return 3
	case []any:
		return 4
	case bool:
		return 5
	default:
		return 6
	}
}

// Compare imposes a total order over normalized values: -1, 0, or +1.
// Values of different types order by type rank; numbers compare
// numerically across int64/float64.
func Compare(a, b any) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		return compareNumbers(a, b)
	case 2:
		return strings.Compare(a.(string), b.(string))
	case 3:
		return compareDocs(toMap(a), toMap(b))
	case 4:
		return compareArrays(a.([]any), b.([]any))
	case 5:
		ba, bb := a.(bool), b.(bool)
		switch {
		case ba == bb:
			return 0
		case !ba:
			return -1
		}
		return 1
	default:
		sa, sb := fmt.Sprint(a), fmt.Sprint(b)
		return strings.Compare(sa, sb)
	}
}

// compareNumbers orders two numeric values exactly. int64/int pairs
// compare as integers, and mixed int64-vs-float64 comparisons avoid the
// lossy float64(int64) conversion, so integers beyond 2^53 do not collapse
// into their float neighbours. Pure float pairs keep float semantics
// (NaN compares equal to everything, as before).
func compareNumbers(a, b any) int {
	ia, aInt := asExactInt64(a)
	ib, bInt := asExactInt64(b)
	switch {
	case aInt && bInt:
		switch {
		case ia < ib:
			return -1
		case ia > ib:
			return 1
		}
		return 0
	case aInt:
		fb, _ := AsFloat(b)
		return -compareFloatInt(fb, ia)
	case bInt:
		fa, _ := AsFloat(a)
		return compareFloatInt(fa, ib)
	default:
		fa, _ := AsFloat(a)
		fb, _ := AsFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	}
}

// asExactInt64 reports integer-typed values as int64 without loss.
func asExactInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

// compareFloatInt compares a float64 against an int64 exactly: -1 when
// f < i, +1 when f > i, 0 when numerically equal (or f is NaN, matching
// the float-pair behaviour).
func compareFloatInt(f float64, i int64) int {
	if math.IsNaN(f) {
		return 0
	}
	// 2^63 and -2^63 are exactly representable as float64.
	if f >= 9.223372036854775808e18 {
		return 1
	}
	if f < -9.223372036854775808e18 {
		return -1
	}
	tf := math.Trunc(f) // within int64 range, so the conversion is exact
	ti := int64(tf)
	switch {
	case ti < i:
		return -1
	case ti > i:
		return 1
	case f > tf: // equal integer parts, positive fraction
		return 1
	case f < tf: // equal integer parts, negative fraction
		return -1
	}
	return 0
}

func toMap(v any) map[string]any {
	switch m := v.(type) {
	case map[string]any:
		return m
	case D:
		return map[string]any(m)
	}
	return nil
}

func compareDocs(a, b map[string]any) int {
	ka := sortedKeys(a)
	kb := sortedKeys(b)
	for i := 0; i < len(ka) && i < len(kb); i++ {
		if c := strings.Compare(ka[i], kb[i]); c != 0 {
			return c
		}
		if c := Compare(a[ka[i]], b[kb[i]]); c != 0 {
			return c
		}
	}
	switch {
	case len(ka) < len(kb):
		return -1
	case len(ka) > len(kb):
		return 1
	}
	return 0
}

func compareArrays(a, b []any) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merge performs a shallow merge of other into d: top-level keys of other
// overwrite those of d. Values are deep-copied from other.
func (d D) Merge(other D) {
	for k, v := range other {
		d[k] = copyValue(v)
	}
}

// Flatten returns a map from dotted leaf path to leaf value. Arrays
// contribute numeric path segments. Empty documents/arrays appear as
// themselves at their path.
func (d D) Flatten() map[string]any {
	out := make(map[string]any)
	flattenInto(out, "", map[string]any(d))
	return out
}

func flattenInto(out map[string]any, prefix string, v any) {
	join := func(seg string) string {
		if prefix == "" {
			return seg
		}
		return prefix + "." + seg
	}
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 && prefix != "" {
			out[prefix] = x
			return
		}
		for k, child := range x {
			flattenInto(out, join(k), child)
		}
	case D:
		flattenInto(out, prefix, map[string]any(x))
	case []any:
		if len(x) == 0 && prefix != "" {
			out[prefix] = x
			return
		}
		for i, child := range x {
			flattenInto(out, join(strconv.Itoa(i)), child)
		}
	default:
		out[prefix] = x
	}
}
