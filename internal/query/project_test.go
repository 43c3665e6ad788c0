package query

import (
	"reflect"
	"testing"

	"matproj/internal/document"
)

// TestProjectionNilSharesDocument pins the read contract: without a
// projection the stored document itself is the result (callers Copy()
// before mutating), while a real projection builds a fresh document a
// caller may extend without touching its input.
func TestProjectionNilSharesDocument(t *testing.T) {
	var p *Projection
	d := doc(`{"a": {"b": 1}, "c": 2}`)
	if out := p.Apply(d); reflect.ValueOf(out).Pointer() != reflect.ValueOf(d).Pointer() {
		t.Error("nil projection should return the input document itself")
	}
	for _, spec := range []string{`{"a": 1}`, `{"c": 0}`} {
		out := MustCompileProjection(doc(spec)).Apply(d)
		if err := out.Set("a.b", 99); err != nil {
			t.Fatal(err)
		}
		if v, _ := d.Get("a.b"); v != int64(1) {
			t.Errorf("projection %s aliased its input", spec)
		}
	}
}

func TestProjectionInclude(t *testing.T) {
	p := MustCompileProjection(doc(`{"formula": 1, "output.energy": 1}`))
	d := doc(`{"_id": "m-1", "formula": "Fe2O3", "output": {"energy": -8.1, "big": [1,2,3]}, "other": true}`)
	out := p.Apply(d)
	if out["_id"] != "m-1" {
		t.Error("_id should be kept by default")
	}
	if out["formula"] != "Fe2O3" {
		t.Errorf("formula = %v", out["formula"])
	}
	if v, _ := out.Get("output.energy"); v != -8.1 {
		t.Errorf("output.energy = %v", v)
	}
	if out.Has("output.big") || out.Has("other") {
		t.Error("unrequested fields present")
	}
}

func TestProjectionIncludeDropID(t *testing.T) {
	p := MustCompileProjection(doc(`{"formula": 1, "_id": 0}`))
	out := p.Apply(doc(`{"_id": 1, "formula": "X"}`))
	if out.Has("_id") {
		t.Error("_id kept despite _id:0")
	}
}

func TestProjectionExclude(t *testing.T) {
	p := MustCompileProjection(doc(`{"secret": 0, "nested.private": 0}`))
	d := doc(`{"_id": 1, "secret": "x", "nested": {"private": 1, "public": 2}, "keep": 3}`)
	out := p.Apply(d)
	if out.Has("secret") || out.Has("nested.private") {
		t.Error("excluded fields present")
	}
	if !out.Has("keep") || !out.Has("nested.public") || !out.Has("_id") {
		t.Error("unrelated fields dropped")
	}
	if !d.Has("secret") {
		t.Error("projection mutated input")
	}
}

func TestProjectionOnlyIDExclusion(t *testing.T) {
	p := MustCompileProjection(doc(`{"_id": 0}`))
	out := p.Apply(doc(`{"_id": 1, "a": 2}`))
	if out.Has("_id") || !out.Has("a") {
		t.Errorf("out = %v", out)
	}
}

func TestProjectionMixErrors(t *testing.T) {
	if _, err := CompileProjection(doc(`{"a": 1, "b": 0}`)); err == nil {
		t.Error("mixed projection: want error")
	}
	if _, err := CompileProjection(doc(`{"a": "yes"}`)); err == nil {
		t.Error("non-flag projection value: want error")
	}
	if p, err := CompileProjection(nil); err != nil || p != nil {
		t.Error("empty projection should compile to nil")
	}
	// Boolean and numeric flags accepted.
	if _, err := CompileProjection(document.D{"a": true, "b": 1.0}); err != nil {
		t.Errorf("bool/float flags: %v", err)
	}
}

func TestParseSort(t *testing.T) {
	keys, err := ParseSort([]string{"energy", "-priority"})
	if err != nil {
		t.Fatal(err)
	}
	if keys[0].Path != "energy" || keys[0].Desc {
		t.Errorf("keys[0] = %+v", keys[0])
	}
	if keys[1].Path != "priority" || !keys[1].Desc {
		t.Errorf("keys[1] = %+v", keys[1])
	}
	if _, err := ParseSort([]string{""}); err == nil {
		t.Error("empty sort field: want error")
	}
	if _, err := ParseSort([]string{"-"}); err == nil {
		t.Error("bare dash: want error")
	}
}

func TestSortDocs(t *testing.T) {
	docs := []document.D{
		doc(`{"n": 3, "s": "a"}`),
		doc(`{"n": 1, "s": "c"}`),
		doc(`{"n": 3, "s": "b"}`),
		doc(`{"s": "missing-n"}`),
	}
	keys, _ := ParseSort([]string{"n", "-s"})
	SortDocs(docs, keys)
	// Missing n sorts first (null < numbers), then n asc, s desc within n.
	if docs[0]["s"] != "missing-n" {
		t.Errorf("docs[0] = %v", docs[0])
	}
	if docs[1]["n"] != int64(1) {
		t.Errorf("docs[1] = %v", docs[1])
	}
	if docs[2]["s"] != "b" || docs[3]["s"] != "a" {
		t.Errorf("desc tiebreak wrong: %v, %v", docs[2], docs[3])
	}
	// No keys: no reorder.
	before := docs[0]
	SortDocs(docs, nil)
	if !document.Equal(docs[0], before) {
		t.Error("nil-key sort reordered")
	}
}

func TestCompareByKeysStable(t *testing.T) {
	a := doc(`{"x": 1}`)
	b := doc(`{"x": 1}`)
	keys, _ := ParseSort([]string{"x"})
	if CompareByKeys(a, b, keys) != 0 {
		t.Error("equal docs should compare 0")
	}
}
