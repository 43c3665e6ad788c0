package document

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// corpusDoc is shaped like a stored material: scalar properties, an
// element list, and a nested structure with per-site arrays.
const corpusDoc = `{"_id": "mat-000042", "pretty_formula": "LiFePO4", "elements": ["Fe", "Li", "O", "P"],
 "nelements": 4, "nsites": 28, "band_gap": 3.6914, "final_energy": -191.33845121, "e_per_atom": -6.833516,
 "density": 3.5506, "functional": "GGA+U", "is_stable": true, "e_above_hull": 0, "icsd_id": null,
 "spacegroup": {"symbol": "Pnma", "number": 62, "crystal_system": "orthorhombic"},
 "structure": {"lattice": {"a": 10.3377, "b": 6.0112, "c": 4.6950,
   "matrix": [[10.3377, 0.0, 0.0], [0.0, 6.0112, 0.0], [0.0, 0.0, 4.695]]},
  "sites": [{"species": [{"element": "Li", "occu": 1}], "abc": [0.0, 0.0, 0.0], "label": "Li"},
   {"species": [{"element": "Fe", "occu": 1}], "abc": [0.2822, 0.25, 0.9748], "label": "Fe"},
   {"species": [{"element": "P", "occu": 1}], "abc": [0.0949, 0.25, 0.4182], "label": "P"},
   {"species": [{"element": "O", "occu": 1}], "abc": [0.0968, 0.25, 0.7428], "label": "O"},
   {"species": [{"element": "O", "occu": 1}], "abc": [0.4573, 0.25, 0.2063], "label": "O"},
   {"species": [{"element": "O", "occu": 1}], "abc": [0.1658, 0.0464, 0.2850], "label": "O"}]},
 "tags": ["battery", "cathode", "olivine <A&B>"], "magnetic": {"total_magnetization": 1.9e-7, "ordering": "FM"},
 "task_ids": [1001, 1002, 9007199254740993], "note": "line\u2028sep \u00e9\ud83d\ude00"}`

// oracleDecode is today's reference decode: encoding/json with
// UseNumber, then Normalize, with only whitespace allowed after the value.
func oracleDecode(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, errors.New("trailing data")
	}
	return Normalize(v), nil
}

// FuzzDocumentJSON checks the document codec against encoding/json: the
// decoder must accept and reject the same inputs and build the same
// normalized tree, and the encoder must emit identical bytes (and fail
// on the same values) for whatever was decoded plus an arbitrary string
// and float.
func FuzzDocumentJSON(f *testing.F) {
	seeds := []string{
		corpusDoc,
		`{}`, `null`, `[]`, `"x"`, `0`, `-0`, `-0.0`, `1e400`, `-1e400`, `1e-400`, `9223372036854775807`,
		`9223372036854775808`, `-9223372036854775809`, `1.5e3`, `1E+2`, `01`, `1.`, `.5`, `-`, `+1`,
		`{"a":1,"a":2}`, `{"a":1,}`, `[1,]`, `{"a" 1}`, `{"a":1}x`, ` {"a":[true,false,null]} `,
		`"\ud800"`, `"\ud800\udc00"`, `"\udc00\ud800"`, `"\ud800\u0041"`, `"\u00zz"`, `"\q"`, "\"\xff\xfe\"",
		"\"a\tb\"", `"<script>&amp;</script>"`, `"\u2028\u2029"`, `[[[[[[[[[[]]]]]]]]]]`, `tru`, `nul`, `{"k":`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), "plain", 1.5)
	}
	f.Add([]byte(`{"x":1}`), "\xff<&>\u2028\x01\x7f", 1e21)
	f.Add([]byte(`{"x":1}`), "", 1e-7)
	f.Add([]byte(`{"x":1}`), "", math.Inf(1))
	f.Add([]byte(`{"x":1}`), "", math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, s string, x float64) {
		want, werr := oracleDecode(data)
		got, gerr := ParseJSON(data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("decode %q: encoding/json err=%v, codec err=%v", data, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("decode %q:\n encoding/json %#v\n codec         %#v", data, want, got)
		}
		for _, v := range []any{got, map[string]any{"doc": got, "s": s, "x": x, s: []any{x, int64(len(s))}}} {
			wb, werr := json.Marshal(v)
			gb, gerr := AppendJSON(nil, v)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("encode %#v: encoding/json err=%v, codec err=%v", v, werr, gerr)
			}
			if werr == nil && !bytes.Equal(wb, gb) {
				t.Fatalf("encode %#v:\n encoding/json %s\n codec         %s", v, wb, gb)
			}
		}
	})
}

func TestCodecMatchesEncodingJSONOnEdgeValues(t *testing.T) {
	vals := []any{
		nil, true, "", "<>&\u2028\u2029\x00\x1f\x7f\xff", int64(math.MinInt64), 0.0, math.Copysign(0, -1),
		1e20, 1e21, 1e-6, 9.99e-7, 123456789.125, float32(1e21), float32(3.4e-7), []any(nil), []any{},
		map[string]any(nil), D(nil), []string{"b", "a"}, []D{{"z": 1, "a": 2}}, []map[string]any{nil},
		struct {
			A int `json:"a"`
		}{7}, []byte("raw"), json.Number("12.50"), map[string]any{"z": []any{1, "x"}, "a": D{"<": nil}},
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", v, err)
		}
		got, err := AppendJSON([]byte("prefix:"), v)
		if err != nil {
			t.Fatalf("AppendJSON(%#v): %v", v, err)
		}
		if string(got) != "prefix:"+string(want) {
			t.Errorf("AppendJSON(%#v) = %s, want prefix:%s", v, got, want)
		}
	}
	for _, bad := range []any{math.NaN(), math.Inf(1), []any{1, math.Inf(-1)}, D{"a": D{"b": math.NaN()}}} {
		if out, err := AppendJSON([]byte("keep"), bad); err == nil || string(out) != "keep" {
			t.Errorf("AppendJSON(%v) = %q, %v; want error and dst untouched", bad, out, err)
		}
	}
}

func TestParseJSONNormalizesAndRejectsTrailingData(t *testing.T) {
	v, err := ParseJSON([]byte(`{"i": 3, "f": 3.0, "big": 9223372036854775808, "huge": 1e400, "neg": -0}`))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["i"] != int64(3) || m["f"] != 3.0 || m["big"] != 9223372036854775808.0 || m["huge"] != "1e400" || m["neg"] != int64(0) {
		t.Errorf("normalized values wrong: %#v", m)
	}
	if _, err := ParseJSON([]byte(`{"a":1} {"b":2}`)); err == nil {
		t.Error("two top-level values accepted")
	}
	deep := strings.Repeat("[", maxNestingDepth+1) + strings.Repeat("]", maxNestingDepth+1)
	if _, err := ParseJSON([]byte(deep)); err == nil {
		t.Error("nesting beyond encoding/json's limit accepted")
	}
	if _, err := ParseJSON([]byte(deep[1 : len(deep)-1])); err != nil {
		t.Errorf("nesting at encoding/json's limit rejected: %v", err)
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckStorable(MustFromJSON(corpusDoc)); err != nil {
		t.Fatalf("corpus document: %v", err)
	}
	d := D{"a": map[string]any{"b": []any{1.0, math.Inf(1)}}}
	err := CheckStorable(d)
	if !errors.Is(err, ErrUnsupportedValue) || !strings.Contains(err.Error(), `"a.b.1"`) {
		t.Fatalf("CheckStorable = %v, want ErrUnsupportedValue naming a.b.1", err)
	}
}

func TestCheckStorableRefusesInvalidUTF8(t *testing.T) {
	for _, tc := range []struct {
		doc  D
		path string
	}{
		{D{"_id": "a\xff"}, `"_id"`},
		{D{"a": map[string]any{"b": []any{"ok", "x\xc3"}}}, `"a.b.1"`},
		{D{"a": map[string]any{"k\xff": 1.0}}, `"a.k\xff"`},
	} {
		err := CheckStorable(tc.doc)
		if !errors.Is(err, ErrUnsupportedValue) || !strings.Contains(err.Error(), "UTF-8") || !strings.Contains(err.Error(), tc.path) {
			t.Errorf("CheckStorable(%q) = %v, want ErrUnsupportedValue naming %s", tc.doc, err, tc.path)
		}
	}
	if err := CheckStorable(D{"é": "ü", "s": "\u2028"}); err != nil {
		t.Errorf("valid UTF-8 refused: %v", err)
	}
}

// BenchmarkDocumentJSONEncode compares the codec with encoding/json on a
// corpus-shaped document (run with -benchmem).
func BenchmarkDocumentJSONEncode(b *testing.B) {
	d := MustFromJSON(corpusDoc)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendJSON(buf[:0], map[string]any(d)); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			out, err := json.Marshal(map[string]any(d))
			if err != nil {
				b.Fatal(err)
			}
			n = len(out)
		}
		b.SetBytes(int64(n))
	})
}

// BenchmarkDocumentJSONDecode compares the codec's decode with
// encoding/json + UseNumber + Normalize, the path it replaces.
func BenchmarkDocumentJSONDecode(b *testing.B) {
	data, err := MustFromJSON(corpusDoc).ToJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := FromJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := oracleDecode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDocumentJSONDecodeResultSet decodes a node-sized result set:
// many documents sharing their keys.
func BenchmarkDocumentJSONDecodeResultSet(b *testing.B) {
	d := MustFromJSON(corpusDoc)
	docs := make([]any, 200)
	for i := range docs {
		docs[i] = map[string]any(d)
	}
	data, err := AppendJSON(nil, map[string]any{"docs": docs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := FromJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
