package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/document"
)

// TestNodeRefusesMalformedRequests checks that a node answers 400 to a
// request body the codec refuses — malformed JSON, trailing data after
// the object (which the old json.Decoder path ignored), a field of the
// wrong type, a non-object — on every request endpoint, and that it
// stores nothing for them.
func TestNodeRefusesMalformedRequests(t *testing.T) {
	store := datastore.MustOpenMemory()
	srv := httptest.NewServer(NewNode("n0", store, nil))
	defer srv.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+wire.Version+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e wire.ErrorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("%s %q: status %d without an error body", path, body, resp.StatusCode)
			}
		}
		return resp.StatusCode
	}
	paths := []string{wire.PathInsert, wire.PathInsertMany, wire.PathBulkWrite, wire.PathFind,
		wire.PathCount, wire.PathGet, wire.PathUpdate, wire.PathRemove, wire.PathAggregate,
		wire.PathDistinct, wire.PathMapReduce, wire.PathEnsureIndex, wire.PathExplain}
	for _, path := range paths {
		for _, body := range []string{
			`{"collection":"m",`,
			`{"collection":"m","doc":{"_id":"x"},"docs":[{"_id":"y"}],"ops":[{"op":"insert","doc":{"_id":"z"}}]} {}`,
			`{"collection":"m"}trailing`,
			`{"collection":7}`,
			`[{"collection":"m"}]`,
		} {
			if code := post(path, body); code != http.StatusBadRequest {
				t.Errorf("%s %q: status %d, want 400", path, body, code)
			}
		}
	}
	if n, _ := store.C("m").Count(nil); n != 0 {
		t.Errorf("refused requests stored %d documents", n)
	}
	if code := post(wire.PathInsertMany, `{"collection":"m","docs":[{"_id":"a","n":2.0}]}`+"\n"); code != http.StatusOK {
		t.Fatalf("well-formed insertMany: status %d", code)
	}
	d, err := store.C("m").FindID("a")
	if err != nil || d["n"] != float64(2) {
		t.Errorf("stored %v (%v), want n as float64(2)", d, err)
	}
}

// TestRoutedWriteEncodesOnceForEveryMember checks that the router sends
// the same request bytes to every member of a group, that those bytes
// are json.Marshal's, and that an unencodable write is refused before
// any member sees it (no member is marked down for it).
func TestRoutedWriteEncodesOnceForEveryMember(t *testing.T) {
	var (
		mu     sync.Mutex
		bodies [][]byte
		urls   []string
	)
	for i := 0; i < 2; i++ {
		n := NewNode("n", datastore.MustOpenMemory(), nil)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, wire.PathInsertMany) {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				bodies = append(bodies, body)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			n.ServeHTTP(w, r)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	r, err := NewRouter(RouterOptions{Groups: [][]string{urls}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	docs := []document.D{{"_id": "a", "f": "<b>&", "x": 1.5}, {"_id": "b", "n": int64(3)}}
	if _, err := r.InsertMany("m", docs); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wire.InsertManyRequest{Collection: "m", Docs: docs})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 || !bytes.Equal(bodies[0], want) || !bytes.Equal(bodies[1], want) {
		t.Fatalf("member bodies %q, want two copies of %s", bodies, want)
	}
	mu.Unlock()
	if _, err := r.InsertMany("m", []document.D{{"_id": "c", "x": math.Inf(1)}}); err == nil {
		t.Fatal("non-finite document routed")
	}
	mu.Lock()
	if len(bodies) != 2 {
		t.Errorf("unencodable batch reached a member")
	}
	if h := r.Healthy(); h[0] != 2 {
		t.Errorf("healthy members = %v after an unencodable write, want 2", h)
	}
}
