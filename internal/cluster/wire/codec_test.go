package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"unicode"
	"unicode/utf8"

	"matproj/internal/document"
)

// requestTypes builds one empty value of every request type.
var requestTypes = []func() Request{
	func() Request { return &InsertRequest{} },
	func() Request { return &InsertManyRequest{} },
	func() Request { return &BulkWriteRequest{} },
	func() Request { return &FindRequest{} },
	func() Request { return &CountRequest{} },
	func() Request { return &GetRequest{} },
	func() Request { return &UpdateRequest{} },
	func() Request { return &RemoveRequest{} },
	func() Request { return &AggregateRequest{} },
	func() Request { return &DistinctRequest{} },
	func() Request { return &MapReduceRequest{} },
	func() Request { return &EnsureIndexRequest{} },
	func() Request { return &ExplainRequest{} },
}

// oracleDecode is the decoding the node used before the codec —
// encoding/json with UseNumber, then document.Normalize on every
// document — except that it refuses trailing data, as DecodeRequest
// does.
func oracleDecode(body []byte, req Request) error {
	if !json.Valid(body) {
		return fmt.Errorf("invalid JSON")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(req); err != nil {
		return err
	}
	normalizeDocs(reflect.ValueOf(req))
	return nil
}

var docType = reflect.TypeOf(document.D(nil))

// normalizeDocs replaces every non-nil document reachable from v by its
// normalized copy.
func normalizeDocs(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			normalizeDocs(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalizeDocs(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			normalizeDocs(v.Index(i))
		}
	case reflect.Map:
		if v.Type() == docType && !v.IsNil() {
			v.Set(reflect.ValueOf(document.NormalizeDoc(v.Interface().(document.D))))
		}
	}
}

// fieldNames are the request and FindOpts/BulkOp tag names.
var fieldNames = []string{"collection", "doc", "docs", "ops", "op", "filter", "update", "opts",
	"projection", "sort", "skip", "limit", "max_staleness", "hint", "id", "many", "pipeline",
	"path", "paths", "job"}

// foldName is encoding/json's case folding for field names.
func foldName(s string) string {
	var out []byte
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		out = utf8.AppendRune(out, unicode.ToUpper(unicode.ToLower(r)))
		i += n
	}
	return string(out)
}

// outsideContract reports inputs on which DecodeRequest knowingly parts
// from encoding/json, so the oracle cannot judge them:
//   - a key that matches a field name only case-insensitively
//     (encoding/json folds, DecodeRequest matches exactly);
//   - a key repeated within one object (encoding/json decodes a repeated
//     struct, pointer or map field into the value the first occurrence
//     built, merging the two; DecodeRequest keeps the last);
//   - a number literal beyond float64 (the codec keeps it as its literal
//     string, which a string field then accepts).
//
// The checks look at every object, document contents included, which
// only makes the exclusion wider than it needs to be.
func outsideContract(body []byte) bool {
	folded := make(map[string]string, len(fieldNames))
	for _, n := range fieldNames {
		folded[foldName(n)] = n
	}
	type frame struct {
		object  bool
		wantKey bool
		keys    map[string]bool
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	for {
		tok, err := dec.Token()
		if err != nil {
			return false // end of input, or invalid: both decoders refuse
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.object && top.wantKey {
			if d, ok := tok.(json.Delim); ok && d == '}' {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 && stack[len(stack)-1].object {
					stack[len(stack)-1].wantKey = true
				}
				continue
			}
			k := tok.(string)
			if n, ok := folded[foldName(k)]; ok && n != k {
				return true
			}
			if top.keys[k] {
				return true
			}
			top.keys[k] = true
			top.wantKey = false
			continue
		}
		switch x := tok.(type) {
		case json.Delim:
			switch x {
			case '{':
				stack = append(stack, &frame{object: true, wantKey: true, keys: map[string]bool{}})
			case '[':
				stack = append(stack, &frame{})
			default: // ']'
				stack = stack[:len(stack)-1]
				if len(stack) > 0 && stack[len(stack)-1].object {
					stack[len(stack)-1].wantKey = true
				}
			}
			continue
		case json.Number:
			if _, err := strconv.ParseFloat(string(x), 64); err != nil {
				return true
			}
		}
		if top != nil && top.object {
			top.wantKey = true
		}
	}
}

// checkAgainstOracle decodes body as every request type and compares
// DecodeRequest with the oracle: the same accept/refuse decision and,
// when accepted, the same values.
func checkAgainstOracle(t *testing.T, body []byte) {
	if outsideContract(body) {
		return
	}
	for _, mk := range requestTypes {
		got, want := mk(), mk()
		gotErr, wantErr := DecodeRequest(body, got), oracleDecode(body, want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%T on %q: codec err %v, encoding/json err %v", got, body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T on %q:\n codec         %#v\n encoding/json %#v", got, body, got, want)
		}
	}
}

// checkRoundTrip puts d in every document slot of every request type:
// AppendJSON must write json.Marshal's bytes, and DecodeRequest must
// read back a request that encodes to the same bytes.
func checkRoundTrip(t *testing.T, d document.D) {
	var keys []string
	for k := range d {
		keys = append(keys, k)
	}
	opts := &FindOpts{Projection: d, Sort: keys, Skip: len(keys), Limit: 3, MaxStaleness: 2, Hint: "h<>"}
	reqs := []Request{
		&InsertRequest{Collection: "m<&>", Doc: d},
		&InsertManyRequest{Collection: "m", Docs: []document.D{d, nil, {}, d}},
		&InsertManyRequest{Collection: "m"},
		&BulkWriteRequest{Collection: "m", Ops: []BulkOp{{Op: "insert", Doc: d}, {Op: "updateMany", Filter: d, Update: d}, {}}},
		&BulkWriteRequest{},
		&FindRequest{Collection: "m", Filter: d, Opts: opts},
		&FindRequest{Collection: "m", Opts: &FindOpts{}},
		&CountRequest{Collection: "m", Filter: d},
		&GetRequest{Collection: "m", ID: "id\u2028"},
		&UpdateRequest{Collection: "m", Filter: d, Update: d, Many: true},
		&UpdateRequest{Collection: "m"},
		&RemoveRequest{Collection: "m", Filter: d},
		&AggregateRequest{Collection: "m", Pipeline: []document.D{{"$match": d}, d}},
		&AggregateRequest{Collection: "m"},
		&DistinctRequest{Collection: "m", Path: "a.b", Filter: d},
		&MapReduceRequest{Collection: "m", Job: "j", Filter: d},
		&EnsureIndexRequest{Collection: "m", Paths: keys},
		&EnsureIndexRequest{Collection: "m", Paths: []string{}},
		&ExplainRequest{Collection: "m", Filter: d, Opts: opts},
	}
	for _, req := range reqs {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := req.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T bytes differ:\n got  %s\n want %s", req, got, want)
		}
		back := reflect.New(reflect.TypeOf(req).Elem()).Interface().(Request)
		if err := DecodeRequest(got, back); err != nil {
			t.Fatalf("%T: decode own encoding %s: %v", req, got, err)
		}
		again, err := back.AppendJSON(nil)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("%T round trip = %s (%v), want %s", req, again, err, got)
		}
	}
}

var wireSeeds = []string{
	`{"collection":"materials","docs":[{"_id":"mp-1","band_gap":1.5,"elements":["Li","O"]},null,{}]}`,
	`{"collection":"m","ops":[{"op":"insert","doc":{"_id":"a"}},{"op":"delete","filter":{"x":{"$gt":1}}},null]}`,
	`{"collection":"m","filter":{"band_gap":{"$gte":1.0,"$lt":3}},"opts":{"projection":{"a":1},"sort":["-a","b"],"skip":2,"limit":10,"max_staleness":3,"hint":"band_gap"}}`,
	`{"collection":"m","filter":{},"update":{"$set":{"x":1e-7}},"many":true}`,
	`{"collection":"m","pipeline":[{"$match":{"a":1}},{"$group":{"_id":"$b","n":{"$sum":1}}}]}`,
	`{"collection":"m","path":"a.b","paths":["x","y"],"job":"count","id":"m-1"}`,
	`{"collection":"m","opts":null,"filter":null,"docs":null}`,
	`{"collection":"m","skip":1.5}`,
	`{"collection":"m","opts":{"limit":1e2}}`,
	`{"collection":5}`,
	`{"collection":"m"} {"x":1}`,
	`{"collection":"m"}garbage`,
	`{"collection":"m",}`,
	`{"Collection":"m"}`,
	`{"filter":{"a":1},"filter":{"b":2}}`,
	`{"collection":"<&>\u2028","doc":{"s":"\ud800","n":-0,"big":123456789012345678901234567890,"f":1.0}}`,
	`null`,
	`[]`,
	`"s"`,
	``,
	`{"docs":[1]}`,
	`{"sort":[null,"a"],"paths":[1]}`,
	`{"many":"true"}`,
	`{"opts":{"sort":"a"}}`,
}

// FuzzWireRequest checks the request codec against encoding/json. Any
// body decodes as every request type exactly as encoding/json with
// UseNumber + Normalize would (same values, same refusals — trailing data
// included), and any JSON object, put in every document slot, encodes to
// json.Marshal's bytes and decodes back to itself.
func FuzzWireRequest(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
		if d, err := document.FromJSON(body); err == nil {
			checkRoundTrip(t, d)
		}
	})
}

// TestRequestCodecSeeds runs the fuzz checks over the seed bodies and a
// corpus-shaped document, so they run in every plain test pass.
func TestRequestCodecSeeds(t *testing.T) {
	for _, s := range wireSeeds {
		checkAgainstOracle(t, []byte(s))
	}
	checkRoundTrip(t, corpusDoc(7))
	checkRoundTrip(t, document.D{})
	if err := DecodeRequest([]byte(`{"collection":"m"} {}`), &InsertRequest{}); err == nil {
		t.Error("trailing data accepted")
	}
	var out InsertRequest
	if _, err := (&InsertRequest{Doc: document.D{"x": nan()}}).AppendJSON(nil); err == nil {
		t.Error("NaN encoded")
	}
	if b, err := (InsertRequest{Doc: document.D{"x": nan()}}).AppendJSON([]byte("keep")); err == nil || string(b) != "keep" {
		t.Errorf("failed encode returned %q, %v; want the destination unchanged", b, err)
	}
	if err := DecodeRequest([]byte(`{"collection":"m","doc":{"n":2,"f":2.0,"l":[1,2.5]}}`), &out); err != nil ||
		!reflect.DeepEqual(out.Doc, document.D{"n": int64(2), "f": 2.0, "l": []any{int64(1), 2.5}}) {
		t.Errorf("decoded %#v, %v; want normalized numbers", out.Doc, err)
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

// corpusDoc is a material document shaped like the benchmark corpus.
func corpusDoc(i int) document.D {
	return document.MustFromJSON(fmt.Sprintf(`{"_id": "mp-%d", "pretty_formula": "LiFePO4", "elements": ["Fe", "Li", "O", "P"],
		"nelements": 4, "band_gap": %d.712, "final_energy": -191.2354, "e_above_hull": 0.0,
		"spacegroup": {"symbol": "Pnma", "number": 62, "crystal_system": "orthorhombic"},
		"structure": {"lattice": [[10.33, 0, 0], [0, 6.01, 0], [0, 0, 4.69]], "sites": 28},
		"tasks": [{"task_id": "t-%d", "state": "COMPLETED", "run_s": 3600.5}], "created_at": "2012-06-01T00:00:00Z"}`, i, i%7, i))
}

// BenchmarkInsertManyRequest measures one routed insertMany sub-batch
// (500 corpus-shaped documents) through the request codec and through
// the encoding/json path it replaced (json.Marshal on the router;
// json.Decoder with UseNumber, then NormalizeDoc per document, on the
// node).
func BenchmarkInsertManyRequest(b *testing.B) {
	docs := make([]document.D, 500)
	for i := range docs {
		docs[i] = corpusDoc(i)
	}
	req := &InsertManyRequest{Collection: "materials", Docs: docs}
	body, err := req.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := req.AppendJSON(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out InsertManyRequest
			if err := DecodeRequest(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out struct {
				Collection string           `json:"collection"`
				Docs       []map[string]any `json:"docs"`
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.UseNumber()
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
			for _, d := range out.Docs {
				document.NormalizeDoc(d)
			}
		}
	})
}
