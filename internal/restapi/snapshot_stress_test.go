package restapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
)

// snapshot is a read result held by a reader, with its encoding at the
// moment it was read.
type snapshot struct {
	what string
	v    any
	enc  []byte
}

func encodeSnapshot(t *testing.T, v any) []byte {
	t.Helper()
	b, err := document.AppendJSON(nil, v)
	if err != nil {
		t.Errorf("encode snapshot: %v", err)
	}
	return b
}

// TestReadSnapshotsUnderConcurrentWrites stresses the read contract:
// results are shared read-only snapshots, never copied. Readers go
// through every serving path — Collection.FindAll, the cached
// Engine.Find and Distinct, the router's cached FindAll and Distinct,
// and the REST query, GET and aggregate endpoints over a cached routed
// engine — while writers $set and $push the very documents being read.
// Run under -race (scripts/check.sh does): any write into a shared
// result is a data race, and every held snapshot must still encode to
// the bytes it had when it was read.
func TestReadSnapshotsUnderConcurrentWrites(t *testing.T) {
	const ndocs, writes, reads = 12, 60, 40
	seed := func(ins interface {
		Insert(document.D) (string, error)
	}) {
		for i := 0; i < ndocs; i++ {
			_, err := ins.Insert(document.D{
				"_id": fmt.Sprintf("mat-%d", i), "pretty_formula": "Fe2O3", "band_gap": float64(i),
				"elements": []any{"Fe", "O"}, "tags": []any{"seed"}, "output": map[string]any{"n": int64(0)},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Local store behind a cached engine.
	local := datastore.MustOpenMemory()
	seed(local.C("materials"))
	eng := queryengine.New(local, queryengine.WithCache(rcache.New(256, obs.NewRegistry())))

	// A 2-shard cluster behind a cached router and a cached engine, with
	// the REST API on top.
	reg := obs.NewRegistry()
	var groups [][]string
	for gi := 0; gi < 2; gi++ {
		srv := httptest.NewServer(cluster.NewNode(fmt.Sprintf("node-%d", gi), datastore.MustOpenMemory(), reg))
		t.Cleanup(srv.Close)
		groups = append(groups, []string{srv.URL})
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups, Registry: reg, Cache: rcache.New(256, reg)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	routed := router.C("materials")
	seed(routed)
	restEng := queryengine.NewWithBackend(router, queryengine.WithCache(rcache.New(256, reg)))
	auth := NewAuth(local)
	api := httptest.NewServer(NewServer(restEng, auth, local))
	t.Cleanup(api.Close)
	key, err := auth.Signup("google", "stress@example.com")
	if err != nil {
		t.Fatal(err)
	}

	update := func(i int) document.D {
		return document.D{
			"$set":  document.D{"band_gap": float64(100 + i), "output.n": int64(i)},
			"$push": document.D{"tags": fmt.Sprintf("w%d", i)},
		}
	}
	all := document.D{"band_gap": document.D{"$gte": 0}}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var held []snapshot
	hold := func(what string, v any) {
		enc := encodeSnapshot(t, v)
		mu.Lock()
		held = append(held, snapshot{what: what, v: v, enc: enc})
		mu.Unlock()
	}
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if _, err := eng.Update("u", "materials", document.D{"_id": fmt.Sprintf("mat-%d", i%ndocs)}, update(i), w == 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := routed.UpdateMany(document.D{"_id": fmt.Sprintf("mat-%d", (i+w)%ndocs)}, update(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Readers.
	run(func(int) error {
		docs, err := local.C("materials").FindAll(all, nil)
		hold("Collection.FindAll", docs)
		return err
	})
	run(func(i int) error {
		d, err := local.C("materials").FindID(fmt.Sprintf("mat-%d", i%ndocs))
		hold("Collection.FindID", d)
		return err
	})
	run(func(int) error {
		docs, err := eng.Find("u", "materials", all, nil)
		hold("Engine.Find", docs)
		return err
	})
	run(func(int) error {
		vals, err := eng.Distinct("u", "materials", "tags", nil)
		hold("Engine.Distinct", vals)
		return err
	})
	run(func(int) error {
		docs, err := routed.FindAll(all, nil)
		hold("routed FindAll", docs)
		return err
	})
	run(func(int) error {
		vals, err := routed.Distinct("tags", nil)
		hold("routed Distinct", vals)
		return err
	})
	rest := func(method, path, body string) error {
		req, err := http.NewRequest(method, api.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("X-API-KEY", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"valid_response":true`)) {
			return fmt.Errorf("%s %s: status %d body %s", method, path, resp.StatusCode, b)
		}
		return nil
	}
	// The REST query handlers and this reader share the engine's cached
	// result (same filter and options), so a handler writing into it
	// would show.
	run(func(int) error {
		docs, err := restEng.Find("u", "materials", all, &datastore.FindOpts{})
		hold("routed Engine.Find", docs)
		return err
	})
	for r := 0; r < 2; r++ {
		run(func(int) error {
			return rest("POST", "/rest/v1/query", `{"criteria": {"band_gap": {"$gte": 0}}}`)
		})
	}
	run(func(int) error { return rest("GET", "/rest/v1/materials/Fe2O3/vasp", "") })
	run(func(int) error {
		return rest("POST", "/rest/v1/aggregate", `{"pipeline": [{"$unwind": "$tags"}, {"$group": {"_id": "$tags", "n": {"$sum": 1}}}]}`)
	})
	wg.Wait()

	for _, s := range held {
		if now := encodeSnapshot(t, s.v); !bytes.Equal(now, s.enc) {
			t.Fatalf("%s snapshot changed after it was read:\n was %s\n now %s", s.what, s.enc, now)
		}
	}

	// And fresh reads see every write: the last $push on each document
	// is visible on both the local and the routed path.
	docs, err := eng.Find("u", "materials", document.D{"_id": "mat-0"}, nil)
	if err != nil || len(docs) != 1 {
		t.Fatalf("fresh local read: %v %v", docs, err)
	}
	if tags, _ := docs[0]["tags"].([]any); len(tags) < 2 {
		t.Errorf("fresh local read misses the writes: %v", docs[0])
	}
	docs, err = routed.FindAll(document.D{"_id": "mat-0"}, nil)
	if err != nil || len(docs) != 1 {
		t.Fatalf("fresh routed read: %v %v", docs, err)
	}
	if tags, _ := docs[0]["tags"].([]any); len(tags) < 2 {
		t.Errorf("fresh routed read misses the writes: %v", docs[0])
	}
}
