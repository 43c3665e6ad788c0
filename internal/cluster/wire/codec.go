package wire

import (
	"fmt"
	"strconv"

	"matproj/internal/document"
)

// Request is a router-to-node request. AppendJSON writes exactly the
// bytes json.Marshal writes for the struct — fields in declaration
// order, omitempty honoured, document keys sorted, HTML escaping — so a
// router encodes a request once and ships the same bytes to every
// member (and keys its result cache on them). DecodeRequest is the
// node-side inverse.
type Request interface {
	AppendJSON(dst []byte) ([]byte, error)
	decode(f *fields)
}

// DecodeRequest parses a request body into req with document.ParseJSON,
// so every document, filter, update, projection and pipeline stage
// arrives as a normalized tree. The body must be one JSON object (or
// null, which leaves req zero) with nothing but whitespace after it.
// Fields match by their exact tag name; a field of the wrong JSON type
// is an error, a null or absent field keeps its zero value, unknown
// fields are ignored.
func DecodeRequest(body []byte, req Request) error {
	v, err := document.ParseJSON(body)
	if err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	var f fields
	switch m := v.(type) {
	case map[string]any:
		f.m = m
	case nil:
	default:
		return fmt.Errorf("wire: decode: request is %s, not an object", jsonKind(v))
	}
	req.decode(&f)
	return f.err
}

// ---- encoder ---------------------------------------------------------

// object appends one JSON object field by field.
type object struct {
	buf   []byte
	start int
	n     int
	err   error
}

func openObject(dst []byte) object {
	return object{buf: append(dst, '{'), start: len(dst)}
}

func (o *object) key(name string) {
	if o.n > 0 {
		o.buf = append(o.buf, ',')
	}
	o.n++
	o.buf = append(o.buf, '"')
	o.buf = append(o.buf, name...)
	o.buf = append(o.buf, '"', ':')
}

func (o *object) str(name, v string, omitEmpty bool) {
	if omitEmpty && v == "" {
		return
	}
	o.key(name)
	o.buf = document.AppendString(o.buf, v)
}

func (o *object) int(name string, v int, omitEmpty bool) {
	if omitEmpty && v == 0 {
		return
	}
	o.key(name)
	o.buf = strconv.AppendInt(o.buf, int64(v), 10)
}

func (o *object) bool(name string, v bool) {
	o.key(name)
	o.buf = strconv.AppendBool(o.buf, v)
}

func (o *object) strs(name string, v []string, omitEmpty bool) {
	if omitEmpty && len(v) == 0 {
		return
	}
	o.key(name)
	if v == nil {
		o.buf = append(o.buf, "null"...)
		return
	}
	o.buf = append(o.buf, '[')
	for i, s := range v {
		if i > 0 {
			o.buf = append(o.buf, ',')
		}
		o.buf = document.AppendString(o.buf, s)
	}
	o.buf = append(o.buf, ']')
}

// value appends a document value (a document, a []document.D, ...).
func (o *object) value(name string, v any) {
	o.key(name)
	if o.err != nil {
		return
	}
	o.buf, o.err = document.AppendJSON(o.buf, v)
}

func (o *object) doc(name string, d document.D, omitEmpty bool) {
	if omitEmpty && len(d) == 0 {
		return
	}
	o.value(name, d)
}

// close ends the object. On error the destination comes back as it was
// handed to openObject.
func (o *object) close() ([]byte, error) {
	if o.err != nil {
		return o.buf[:o.start], o.err
	}
	return append(o.buf, '}'), nil
}

// ---- decoder ---------------------------------------------------------

// fields reads struct fields out of a parsed JSON object, recording the
// first type mismatch.
type fields struct {
	m    map[string]any
	path string // "opts." etc., for error messages
	err  error
}

// get returns a field's value; absent and null both report false.
func (f *fields) get(name string) (any, bool) {
	v, ok := f.m[name]
	return v, ok && v != nil
}

func (f *fields) mismatch(name, want string, v any) {
	if f.err == nil {
		f.err = fmt.Errorf("wire: decode: %s%s is %s, want %s", f.path, name, jsonKind(v), want)
	}
}

func (f *fields) str(name string) string {
	v, ok := f.get(name)
	if !ok {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		f.mismatch(name, "string", v)
	}
	return s
}

// int accepts an integer literal that fits int, as encoding/json does.
func (f *fields) int(name string) int {
	v, ok := f.get(name)
	if !ok {
		return 0
	}
	i, ok := v.(int64)
	if !ok || int64(int(i)) != i {
		f.mismatch(name, "int", v)
		return 0
	}
	return int(i)
}

func (f *fields) bool(name string) bool {
	v, ok := f.get(name)
	if !ok {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		f.mismatch(name, "bool", v)
	}
	return b
}

func (f *fields) array(name string) []any {
	v, ok := f.get(name)
	if !ok {
		return nil
	}
	a, ok := v.([]any)
	if !ok {
		f.mismatch(name, "array", v)
	}
	return a
}

// strs reads a string array; a null element is "".
func (f *fields) strs(name string) []string {
	a := f.array(name)
	if a == nil {
		return nil
	}
	out := make([]string, len(a))
	for i, e := range a {
		if e == nil {
			continue
		}
		s, ok := e.(string)
		if !ok {
			f.mismatch(name+"["+strconv.Itoa(i)+"]", "string", e)
			return nil
		}
		out[i] = s
	}
	return out
}

func (f *fields) doc(name string) document.D {
	v, ok := f.get(name)
	if !ok {
		return nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		f.mismatch(name, "object", v)
	}
	return m
}

// docs reads an array of documents; a null element is a nil document.
func (f *fields) docs(name string) []document.D {
	a := f.array(name)
	if a == nil {
		return nil
	}
	out := make([]document.D, len(a))
	for i, e := range a {
		if e == nil {
			continue
		}
		m, ok := e.(map[string]any)
		if !ok {
			f.mismatch(name+"["+strconv.Itoa(i)+"]", "object", e)
			return nil
		}
		out[i] = m
	}
	return out
}

// object returns the nested object under name (nil when absent or null).
func (f *fields) object(name string) *fields {
	m := f.doc(name)
	if m == nil {
		return nil
	}
	return &fields{m: m, path: f.path + name + "."}
}

// absorb carries a nested reader's error up.
func (f *fields) absorb(sub *fields) {
	if f.err == nil {
		f.err = sub.err
	}
}

func jsonKind(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case string:
		return "string"
	case bool:
		return "bool"
	}
	return "number"
}

// ---- requests --------------------------------------------------------

func (o *FindOpts) appendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.doc("projection", o.Projection, true)
	w.strs("sort", o.Sort, true)
	w.int("skip", o.Skip, true)
	w.int("limit", o.Limit, true)
	w.int("max_staleness", o.MaxStaleness, true)
	w.str("hint", o.Hint, true)
	return w.close()
}

func (o *object) findOpts(name string, opts *FindOpts) {
	if opts == nil || o.err != nil {
		return
	}
	o.key(name)
	o.buf, o.err = opts.appendJSON(o.buf)
}

func (f *fields) findOpts(name string) *FindOpts {
	sub := f.object(name)
	if sub == nil {
		return nil
	}
	o := &FindOpts{
		Projection:   sub.doc("projection"),
		Sort:         sub.strs("sort"),
		Skip:         sub.int("skip"),
		Limit:        sub.int("limit"),
		MaxStaleness: sub.int("max_staleness"),
		Hint:         sub.str("hint"),
	}
	f.absorb(sub)
	return o
}

// AppendJSON implements Request.
func (r InsertRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.doc("doc", r.Doc, false)
	return w.close()
}

func (r *InsertRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Doc = f.doc("doc")
}

// AppendJSON implements Request.
func (r InsertManyRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.value("docs", r.Docs)
	return w.close()
}

func (r *InsertManyRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Docs = f.docs("docs")
}

// AppendJSON implements Request.
func (r BulkWriteRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.key("ops")
	if r.Ops == nil {
		w.buf = append(w.buf, "null"...)
		return w.close()
	}
	w.buf = append(w.buf, '[')
	for i, op := range r.Ops {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		o := openObject(w.buf)
		o.str("op", op.Op, false)
		o.doc("doc", op.Doc, true)
		o.doc("filter", op.Filter, true)
		o.doc("update", op.Update, true)
		if w.buf, w.err = o.close(); w.err != nil {
			return w.close()
		}
	}
	w.buf = append(w.buf, ']')
	return w.close()
}

func (r *BulkWriteRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	a := f.array("ops")
	if a == nil {
		return
	}
	r.Ops = make([]BulkOp, len(a))
	for i, e := range a {
		if e == nil {
			continue
		}
		m, ok := e.(map[string]any)
		if !ok {
			f.mismatch("ops["+strconv.Itoa(i)+"]", "object", e)
			return
		}
		sub := &fields{m: m, path: "ops[" + strconv.Itoa(i) + "]."}
		r.Ops[i] = BulkOp{Op: sub.str("op"), Doc: sub.doc("doc"), Filter: sub.doc("filter"), Update: sub.doc("update")}
		if f.absorb(sub); f.err != nil {
			return
		}
	}
}

// AppendJSON implements Request.
func (r FindRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.doc("filter", r.Filter, true)
	w.findOpts("opts", r.Opts)
	return w.close()
}

func (r *FindRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Filter = f.doc("filter")
	r.Opts = f.findOpts("opts")
}

// AppendJSON implements Request.
func (r CountRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.doc("filter", r.Filter, true)
	return w.close()
}

func (r *CountRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Filter = f.doc("filter")
}

// AppendJSON implements Request.
func (r GetRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.str("id", r.ID, false)
	return w.close()
}

func (r *GetRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.ID = f.str("id")
}

// AppendJSON implements Request.
func (r UpdateRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.doc("filter", r.Filter, true)
	w.doc("update", r.Update, false)
	w.bool("many", r.Many)
	return w.close()
}

func (r *UpdateRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Filter = f.doc("filter")
	r.Update = f.doc("update")
	r.Many = f.bool("many")
}

// AppendJSON implements Request.
func (r RemoveRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.doc("filter", r.Filter, true)
	return w.close()
}

func (r *RemoveRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Filter = f.doc("filter")
}

// AppendJSON implements Request.
func (r AggregateRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.value("pipeline", r.Pipeline)
	return w.close()
}

func (r *AggregateRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Pipeline = f.docs("pipeline")
}

// AppendJSON implements Request.
func (r DistinctRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.str("path", r.Path, false)
	w.doc("filter", r.Filter, true)
	return w.close()
}

func (r *DistinctRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Path = f.str("path")
	r.Filter = f.doc("filter")
}

// AppendJSON implements Request.
func (r MapReduceRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.str("job", r.Job, false)
	w.doc("filter", r.Filter, true)
	return w.close()
}

func (r *MapReduceRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Job = f.str("job")
	r.Filter = f.doc("filter")
}

// AppendJSON implements Request.
func (r EnsureIndexRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.strs("paths", r.Paths, true)
	return w.close()
}

func (r *EnsureIndexRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Paths = f.strs("paths")
}

// AppendJSON implements Request.
func (r ExplainRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := openObject(dst)
	w.str("collection", r.Collection, false)
	w.doc("filter", r.Filter, true)
	w.findOpts("opts", r.Opts)
	return w.close()
}

func (r *ExplainRequest) decode(f *fields) {
	r.Collection = f.str("collection")
	r.Filter = f.doc("filter")
	r.Opts = f.findOpts("opts")
}
