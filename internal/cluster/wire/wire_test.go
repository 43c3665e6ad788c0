package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"matproj/internal/document"
)

// TestCodecResponsesMatchEncodingJSON pins the node wire format: the
// document-carrying responses encode to exactly the bytes json.Encoder
// writes for them, and decode back to the normalized documents.
func TestCodecResponsesMatchEncodingJSON(t *testing.T) {
	d := document.MustFromJSON(`{"_id": "mat-1", "band_gap": 2.5, "n": 3, "tags": ["<a&b>", "é"], "s": {"m": [[1.0, 0.5]], "x": null}}`)
	cases := []struct {
		resp interface {
			AppendJSON([]byte) ([]byte, error)
		}
		out codecDecoder
	}{
		{NewDocsResponse([]document.D{d, {}}), &DocsResponse{}},
		{NewDocsResponse(nil), &DocsResponse{}},
		{DocResponse{Doc: d}, &DocResponse{}},
		{DocResponse{}, &DocResponse{}},
		{DistinctResponse{Values: []any{int64(1), "x", 2.5, []any{"y"}}}, &DistinctResponse{}},
	}
	for _, tc := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(tc.resp); err != nil {
			t.Fatal(err)
		}
		got, err := tc.resp.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%T bytes differ:\n got  %s\n want %s", tc.resp, got, want.Bytes())
		}
		if err := DecodeJSONBytes(got, tc.out); err != nil {
			t.Fatal(err)
		}
		// Integral floats come back as int64 (the wire's normalization),
		// so compare the round trip by its encoding.
		back, err := reflect.ValueOf(tc.out).Elem().Interface().(interface {
			AppendJSON([]byte) ([]byte, error)
		}).AppendJSON(nil)
		if err != nil || !bytes.Equal(back, got) {
			t.Errorf("%T round trip = %s (%v), want %s", tc.resp, back, err, got)
		}
	}
}
