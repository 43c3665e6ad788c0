package datastore

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"matproj/internal/document"
	"matproj/internal/query"
)

// Aggregation pipelines: the paper notes that "both the web interface
// and workflow components perform complex ad-hoc queries over these
// structures". This file implements the MongoDB aggregation stages those
// ad-hoc queries use: $match, $project, $group, $sort, $limit, $skip,
// $unwind, and $count, with the standard accumulator operators.

// Aggregate runs a pipeline over the collection and returns the
// resulting documents. Each stage is a single-key document naming the
// stage, e.g. {"$match": {...}}.
func (c *Collection) Aggregate(pipeline []document.D) ([]document.D, error) {
	// Stage 1 ($match at the head) can use indexes via Find.
	var docs []document.D
	start := 0
	if len(pipeline) > 0 {
		if m, ok := stageBody(pipeline[0], "$match"); ok {
			var err error
			docs, err = c.FindAll(m, nil)
			if err != nil {
				return nil, err
			}
			start = 1
		}
	}
	if start == 0 {
		var err error
		docs, err = c.FindAll(nil, nil)
		if err != nil {
			return nil, err
		}
	}
	return RunPipeline(docs, pipeline[start:])
}

// RunPipeline applies aggregation stages to an in-memory document slice
// (exported so pipelines compose with MapReduce output and shard
// mergers).
func RunPipeline(docs []document.D, stages []document.D) ([]document.D, error) {
	var err error
	for i, stage := range stages {
		if len(stage) != 1 {
			return nil, fmt.Errorf("datastore: aggregation stage %d must have exactly one operator, got %d", i, len(stage))
		}
		for op, body := range stage {
			switch op {
			case "$match":
				docs, err = stageMatch(docs, body)
			case "$project":
				docs, err = stageProject(docs, body)
			case "$group":
				docs, err = stageGroup(docs, body)
			case "$sort":
				docs, err = stageSort(docs, body)
			case "$limit":
				docs, err = stageLimit(docs, body)
			case "$skip":
				docs, err = stageSkip(docs, body)
			case "$unwind":
				docs, err = stageUnwind(docs, body)
			case "$count":
				docs, err = stageCount(docs, body)
			default:
				return nil, fmt.Errorf("datastore: unknown aggregation stage %q", op)
			}
			if err != nil {
				return nil, fmt.Errorf("datastore: stage %d (%s): %w", i, op, err)
			}
		}
	}
	return docs, nil
}

func stageBody(stage document.D, name string) (document.D, bool) {
	if len(stage) != 1 {
		return nil, false
	}
	v, ok := stage[name]
	if !ok {
		return nil, false
	}
	switch m := v.(type) {
	case map[string]any:
		return document.D(m), true
	case document.D:
		return m, true
	}
	return nil, false
}

func asDoc(v any) (document.D, bool) {
	switch m := v.(type) {
	case map[string]any:
		return document.D(m), true
	case document.D:
		return m, true
	}
	return nil, false
}

func stageMatch(docs []document.D, body any) ([]document.D, error) {
	m, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$match requires a document")
	}
	flt, err := query.Compile(m)
	if err != nil {
		return nil, err
	}
	out := docs[:0:0]
	for _, d := range docs {
		if flt.Matches(d) {
			out = append(out, d)
		}
	}
	return out, nil
}

func stageProject(docs []document.D, body any) ([]document.D, error) {
	m, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$project requires a document")
	}
	// Split into plain include/exclude flags and computed fields
	// ("$path" references and expression documents).
	flags := document.D{}
	computed := map[string]any{}
	for k, v := range m {
		switch x := v.(type) {
		case string:
			if strings.HasPrefix(x, "$") {
				computed[k] = x
				continue
			}
			return nil, fmt.Errorf("$project field %q: string value must be a $path reference", k)
		case map[string]any, document.D:
			computed[k] = v
		default:
			flags[k] = v
		}
	}
	var proj *query.Projection
	if len(flags) > 0 {
		var err error
		proj, err = query.CompileProjection(flags)
		if err != nil {
			return nil, err
		}
	}
	out := make([]document.D, 0, len(docs))
	for _, d := range docs {
		var nd document.D
		if proj != nil {
			nd = proj.Apply(d)
		} else {
			nd = document.D{}
			if id, ok := d["_id"]; ok {
				nd["_id"] = id
			}
		}
		for k, expr := range computed {
			v, err := evalExpr(expr, d)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", k, err)
			}
			if err := nd.Set(k, v); err != nil {
				return nil, err
			}
		}
		out = append(out, nd)
	}
	return out, nil
}

// evalExpr evaluates an aggregation expression against a document:
// "$path" field references, literals, and arithmetic/array operators.
func evalExpr(expr any, d document.D) (any, error) {
	switch x := expr.(type) {
	case string:
		if strings.HasPrefix(x, "$") {
			v, _ := d.Get(x[1:])
			return v, nil
		}
		return x, nil
	case map[string]any:
		return evalOpExpr(document.D(x), d)
	case document.D:
		return evalOpExpr(x, d)
	default:
		return x, nil
	}
}

func evalOpExpr(m document.D, d document.D) (any, error) {
	if len(m) != 1 {
		return nil, fmt.Errorf("expression must have exactly one operator: %v", m)
	}
	for op, arg := range m {
		switch op {
		case "$add", "$subtract", "$multiply", "$divide":
			args, err := evalNumericArgs(arg, d)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op, err)
			}
			return applyArith(op, args)
		case "$abs":
			v, err := evalExpr(arg, d)
			if err != nil {
				return nil, err
			}
			f, ok := document.AsFloat(v)
			if !ok {
				return nil, fmt.Errorf("$abs: non-numeric %v", v)
			}
			return math.Abs(f), nil
		case "$size":
			v, err := evalExpr(arg, d)
			if err != nil {
				return nil, err
			}
			arr, ok := v.([]any)
			if !ok {
				return nil, fmt.Errorf("$size: not an array")
			}
			return int64(len(arr)), nil
		case "$concat":
			parts, ok := arg.([]any)
			if !ok {
				return nil, fmt.Errorf("$concat requires an array")
			}
			var b strings.Builder
			for _, p := range parts {
				v, err := evalExpr(p, d)
				if err != nil {
					return nil, err
				}
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("$concat: non-string %v", v)
				}
				b.WriteString(s)
			}
			return b.String(), nil
		case "$literal":
			return arg, nil
		default:
			return nil, fmt.Errorf("unknown expression operator %q", op)
		}
	}
	return nil, nil
}

func evalNumericArgs(arg any, d document.D) ([]float64, error) {
	arr, ok := arg.([]any)
	if !ok {
		return nil, fmt.Errorf("requires an array of operands")
	}
	out := make([]float64, len(arr))
	for i, a := range arr {
		v, err := evalExpr(a, d)
		if err != nil {
			return nil, err
		}
		f, ok := document.AsFloat(v)
		if !ok {
			return nil, fmt.Errorf("operand %d is not numeric: %v", i, v)
		}
		out[i] = f
	}
	return out, nil
}

func applyArith(op string, args []float64) (any, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("%s: no operands", op)
	}
	switch op {
	case "$add":
		s := 0.0
		for _, a := range args {
			s += a
		}
		return s, nil
	case "$multiply":
		s := 1.0
		for _, a := range args {
			s *= a
		}
		return s, nil
	case "$subtract":
		if len(args) != 2 {
			return nil, fmt.Errorf("$subtract needs exactly 2 operands")
		}
		return args[0] - args[1], nil
	case "$divide":
		if len(args) != 2 {
			return nil, fmt.Errorf("$divide needs exactly 2 operands")
		}
		if args[1] == 0 {
			return nil, fmt.Errorf("$divide by zero")
		}
		return args[0] / args[1], nil
	}
	return nil, fmt.Errorf("unknown arithmetic %q", op)
}

// groupAccumulator folds values for one group key.
type groupAccumulator struct {
	op   string
	expr any

	sum    float64
	count  int64
	min    any
	max    any
	first  any
	last   any
	seen   bool
	pushed []any
	set    []any
}

func (a *groupAccumulator) add(d document.D) error {
	if a.op == "$count" {
		// $count ignores its argument ({} by convention).
		a.count++
		return nil
	}
	v, err := evalExpr(a.expr, d)
	if err != nil {
		return err
	}
	switch a.op {
	case "$sum":
		if f, ok := document.AsFloat(v); ok {
			a.sum += f
		}
		a.count++
	case "$avg":
		if f, ok := document.AsFloat(v); ok {
			a.sum += f
			a.count++
		}
	case "$min":
		if v == nil {
			return nil
		}
		if !a.seen || document.Compare(v, a.min) < 0 {
			a.min = v
			a.seen = true
		}
	case "$max":
		if v == nil {
			return nil
		}
		if !a.seen || document.Compare(v, a.max) > 0 {
			a.max = v
			a.seen = true
		}
	case "$first":
		if !a.seen {
			a.first = v
			a.seen = true
		}
	case "$last":
		a.last = v
		a.seen = true
	case "$push":
		a.pushed = append(a.pushed, v)
	case "$addToSet":
		for _, el := range a.set {
			if document.Equal(el, v) {
				return nil
			}
		}
		a.set = append(a.set, v)
	}
	return nil
}

func (a *groupAccumulator) result() any {
	switch a.op {
	case "$sum":
		// Integral sums become int64 only when they fit exactly: ±Inf
		// and magnitudes of 2^63 or more stay float64.
		if a.sum == math.Trunc(a.sum) && a.sum >= -0x1p63 && a.sum < 0x1p63 {
			return int64(a.sum)
		}
		return a.sum
	case "$avg":
		if a.count == 0 {
			return nil
		}
		return a.sum / float64(a.count)
	case "$min":
		return a.min
	case "$max":
		return a.max
	case "$first":
		return a.first
	case "$last":
		return a.last
	case "$push":
		if a.pushed == nil {
			return []any{}
		}
		return a.pushed
	case "$addToSet":
		if a.set == nil {
			return []any{}
		}
		return a.set
	case "$count":
		return a.count
	}
	return nil
}

func stageGroup(docs []document.D, body any) ([]document.D, error) {
	spec, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$group requires a document")
	}
	idExpr, hasID := spec["_id"]
	if !hasID {
		return nil, fmt.Errorf("$group requires an _id expression")
	}
	type fieldSpec struct {
		name string
		op   string
		expr any
	}
	var fields []fieldSpec
	names := make([]string, 0, len(spec))
	for name := range spec {
		if name != "_id" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		accSpec, ok := asDoc(spec[name])
		if !ok || len(accSpec) != 1 {
			return nil, fmt.Errorf("$group field %q must be {<accumulator>: <expr>}", name)
		}
		for op, expr := range accSpec {
			switch op {
			case "$sum", "$avg", "$min", "$max", "$first", "$last", "$push", "$addToSet", "$count":
			default:
				return nil, fmt.Errorf("$group field %q: unknown accumulator %q", name, op)
			}
			fields = append(fields, fieldSpec{name: name, op: op, expr: expr})
		}
	}

	type groupState struct {
		key  any
		accs []*groupAccumulator
	}
	groups := map[string]*groupState{}
	var order []string
	for _, d := range docs {
		keyVal, err := evalExpr(idExpr, d)
		if err != nil {
			return nil, err
		}
		kb, err := document.D{"k": keyVal}.ToJSON()
		if err != nil {
			return nil, err
		}
		k := string(kb)
		g, ok := groups[k]
		if !ok {
			g = &groupState{key: keyVal}
			for _, f := range fields {
				g.accs = append(g.accs, &groupAccumulator{op: f.op, expr: f.expr})
			}
			groups[k] = g
			order = append(order, k)
		}
		for _, acc := range g.accs {
			if err := acc.add(d); err != nil {
				return nil, err
			}
		}
	}
	sort.Strings(order)
	out := make([]document.D, 0, len(order))
	for _, k := range order {
		g := groups[k]
		nd := document.D{"_id": g.key}
		for i, f := range fields {
			nd[f.name] = document.Normalize(g.accs[i].result())
		}
		out = append(out, nd)
	}
	return out, nil
}

func stageSort(docs []document.D, body any) ([]document.D, error) {
	spec, ok := asDoc(body)
	if !ok {
		return nil, fmt.Errorf("$sort requires a document")
	}
	// Deterministic multi-key order: fields sorted by name, since Go maps
	// are unordered. (Callers needing a specific precedence should chain
	// $sort stages, last-most-significant.)
	var keys []query.SortKey
	names := make([]string, 0, len(spec))
	for name := range spec {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir, ok := document.AsFloat(spec[name])
		if !ok || (dir != 1 && dir != -1) {
			return nil, fmt.Errorf("$sort field %q must be 1 or -1", name)
		}
		keys = append(keys, query.SortKey{Path: name, Desc: dir == -1})
	}
	out := append([]document.D(nil), docs...)
	query.SortDocs(out, keys)
	return out, nil
}

func stageLimit(docs []document.D, body any) ([]document.D, error) {
	n, ok := document.AsFloat(body)
	if !ok || n < 0 {
		return nil, fmt.Errorf("$limit requires a non-negative number")
	}
	if int(n) < len(docs) {
		return docs[:int(n)], nil
	}
	return docs, nil
}

func stageSkip(docs []document.D, body any) ([]document.D, error) {
	n, ok := document.AsFloat(body)
	if !ok || n < 0 {
		return nil, fmt.Errorf("$skip requires a non-negative number")
	}
	if int(n) >= len(docs) {
		return nil, nil
	}
	return docs[int(n):], nil
}

func stageUnwind(docs []document.D, body any) ([]document.D, error) {
	path, ok := body.(string)
	if !ok || !strings.HasPrefix(path, "$") {
		return nil, fmt.Errorf("$unwind requires a $path string")
	}
	field := path[1:]
	var out []document.D
	for _, d := range docs {
		v, exists := d.Get(field)
		if !exists {
			continue
		}
		arr, isArr := v.([]any)
		if !isArr {
			out = append(out, d)
			continue
		}
		for _, el := range arr {
			nd := d.Copy()
			if err := nd.Set(field, el); err != nil {
				return nil, err
			}
			out = append(out, nd)
		}
	}
	return out, nil
}

func stageCount(docs []document.D, body any) ([]document.D, error) {
	name, ok := body.(string)
	if !ok || name == "" {
		return nil, fmt.Errorf("$count requires a field name")
	}
	return []document.D{{name: int64(len(docs))}}, nil
}
