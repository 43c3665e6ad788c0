package datastore

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"matproj/internal/document"
)

func doc(s string) document.D { return document.MustFromJSON(s) }

func TestInsertAssignsID(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("mps")
	id, err := c.Insert(doc(`{"formula": "Fe2O3"}`))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty id")
	}
	got, err := c.FindID(id)
	if err != nil {
		t.Fatal(err)
	}
	if got["formula"] != "Fe2O3" || got["_id"] != id {
		t.Errorf("got %v", got)
	}
}

func TestInsertExplicitAndDuplicateID(t *testing.T) {
	c := MustOpenMemory().C("x")
	if _, err := c.Insert(doc(`{"_id": "m-1", "v": 1}`)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Insert(doc(`{"_id": "m-1", "v": 2}`))
	if !errors.Is(err, ErrDuplicateID) {
		t.Errorf("dup insert err = %v", err)
	}
	if _, err := c.Insert(document.D{"_id": int64(3)}); err == nil {
		t.Error("non-string _id accepted")
	}
}

func TestInsertDoesNotAliasCaller(t *testing.T) {
	c := MustOpenMemory().C("x")
	d := doc(`{"nested": {"v": 1}}`)
	id, _ := c.Insert(d)
	d.Set("nested.v", 99)
	got, _ := c.FindID(id)
	if v, _ := got.Get("nested.v"); v != int64(1) {
		t.Errorf("stored doc aliased caller: %v", v)
	}
	// FindID returns a read-only snapshot: held across a write it keeps
	// its pre-write value, and a fresh read sees the write.
	if _, err := c.UpdateOne(document.D{"_id": id}, doc(`{"$set": {"nested.v": 42}}`)); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("nested.v"); v != int64(1) {
		t.Errorf("snapshot held across a write changed: %v", v)
	}
	got2, _ := c.FindID(id)
	if v, _ := got2.Get("nested.v"); v != int64(42) {
		t.Errorf("fresh FindID = %v, want 42", v)
	}
}

func TestInsertMany(t *testing.T) {
	c := MustOpenMemory().C("x")
	ids, err := c.InsertMany([]document.D{doc(`{"n": 1}`), doc(`{"n": 2}`)})
	if err != nil || len(ids) != 2 {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
	n, _ := c.Count(nil)
	if n != 2 {
		t.Errorf("count = %d", n)
	}
	// Error stops the batch.
	ids2, err := c.InsertMany([]document.D{{"_id": ids[0]}, doc(`{"n": 3}`)})
	if err == nil || len(ids2) != 0 {
		t.Errorf("batch with dup: ids=%v err=%v", ids2, err)
	}
}

func seedTasks(t *testing.T) *Collection {
	t.Helper()
	c := MustOpenMemory().C("tasks")
	rows := []string{
		`{"_id": "t1", "state": "ready", "elements": ["Li", "O"], "nelectrons": 120, "priority": 5}`,
		`{"_id": "t2", "state": "ready", "elements": ["Na", "O"], "nelectrons": 90, "priority": 9}`,
		`{"_id": "t3", "state": "running", "elements": ["Li", "Fe", "O"], "nelectrons": 250, "priority": 1}`,
		`{"_id": "t4", "state": "done", "elements": ["Li", "O"], "nelectrons": 60, "priority": 3}`,
	}
	for _, r := range rows {
		if _, err := c.Insert(doc(r)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestFindWithPaperQuery(t *testing.T) {
	c := seedTasks(t)
	got, err := c.FindAll(doc(`{"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d docs: %v", len(got), got)
	}
	if got[0]["_id"] != "t1" || got[1]["_id"] != "t4" {
		t.Errorf("ids = %v, %v", got[0]["_id"], got[1]["_id"])
	}
}

func TestFindSortSkipLimitProjection(t *testing.T) {
	c := seedTasks(t)
	got, err := c.FindAll(nil, &FindOpts{
		Sort:       []string{"-priority"},
		Skip:       1,
		Limit:      2,
		Projection: doc(`{"priority": 1}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d", len(got))
	}
	if got[0]["priority"] != int64(5) || got[1]["priority"] != int64(3) {
		t.Errorf("priorities = %v, %v", got[0]["priority"], got[1]["priority"])
	}
	if got[0].Has("state") {
		t.Error("projection leaked fields")
	}
	// Skip past the end.
	none, _ := c.FindAll(nil, &FindOpts{Skip: 100})
	if len(none) != 0 {
		t.Errorf("skip past end returned %d", len(none))
	}
}

func TestFindErrorsPropagate(t *testing.T) {
	c := seedTasks(t)
	if _, err := c.Find(doc(`{"a": {"$bogus": 1}}`), nil); err == nil {
		t.Error("bad filter: want error")
	}
	if _, err := c.Find(nil, &FindOpts{Projection: doc(`{"a": 1, "b": 0}`)}); err == nil {
		t.Error("bad projection: want error")
	}
	if _, err := c.Find(nil, &FindOpts{Sort: []string{""}}); err == nil {
		t.Error("bad sort: want error")
	}
}

func TestFindOne(t *testing.T) {
	c := seedTasks(t)
	got, err := c.FindOne(doc(`{"state": "ready"}`), &FindOpts{Sort: []string{"-priority"}})
	if err != nil {
		t.Fatal(err)
	}
	if got["_id"] != "t2" {
		t.Errorf("_id = %v", got["_id"])
	}
	if _, err := c.FindOne(doc(`{"state": "nope"}`), nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestCountAndDistinct(t *testing.T) {
	c := seedTasks(t)
	n, err := c.Count(doc(`{"state": "ready"}`))
	if err != nil || n != 2 {
		t.Errorf("count = %d err=%v", n, err)
	}
	vals, err := c.Distinct("elements", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 { // Fe, Li, Na, O
		t.Errorf("distinct elements = %v", vals)
	}
	states, _ := c.Distinct("state", doc(`{"nelectrons": {"$lt": 100}}`))
	if len(states) != 2 {
		t.Errorf("states = %v", states)
	}
	if _, err := c.Distinct("x", doc(`{"$bad": 1}`)); err == nil {
		t.Error("bad filter distinct: want error")
	}
}

func TestUpdateOneAndMany(t *testing.T) {
	c := seedTasks(t)
	res, err := c.UpdateOne(doc(`{"state": "ready"}`), doc(`{"$set": {"state": "claimed"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 || res.Modified != 1 {
		t.Errorf("res = %+v", res)
	}
	res, err = c.UpdateMany(doc(`{"state": "ready"}`), doc(`{"$inc": {"priority": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 || res.Modified != 1 {
		t.Errorf("many res = %+v", res)
	}
	// No-op update counts matched but not modified.
	res, _ = c.UpdateMany(doc(`{"state": "done"}`), doc(`{"$set": {"state": "done"}}`))
	if res.Matched != 1 || res.Modified != 0 {
		t.Errorf("noop res = %+v", res)
	}
}

func TestUpdateCannotChangeID(t *testing.T) {
	c := seedTasks(t)
	if _, err := c.UpdateOne(doc(`{"_id": "t1"}`), doc(`{"$set": {"_id": "hax"}}`)); err == nil {
		t.Error("want error on _id change")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	c := seedTasks(t)
	c.EnsureIndex("state")
	got, _ := c.FindAll(doc(`{"state": "ready"}`), nil)
	if len(got) != 2 {
		t.Fatalf("pre: %d", len(got))
	}
	if _, err := c.UpdateMany(doc(`{"state": "ready"}`), doc(`{"$set": {"state": "claimed"}}`)); err != nil {
		t.Fatal(err)
	}
	got, _ = c.FindAll(doc(`{"state": "ready"}`), nil)
	if len(got) != 0 {
		t.Errorf("stale index: %d ready", len(got))
	}
	got, _ = c.FindAll(doc(`{"state": "claimed"}`), nil)
	if len(got) != 2 {
		t.Errorf("claimed = %d", len(got))
	}
}

func TestUpsert(t *testing.T) {
	c := MustOpenMemory().C("x")
	id, err := c.Upsert(doc(`{"key": "a"}`), doc(`{"$set": {"v": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c.FindID(id)
	if got["key"] != "a" || got["v"] != int64(1) {
		t.Errorf("upsert insert: %v", got)
	}
	id2, err := c.Upsert(doc(`{"key": "a"}`), doc(`{"$inc": {"v": 5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Errorf("upsert created new doc: %s vs %s", id2, id)
	}
	got, _ = c.FindID(id)
	if got["v"] != int64(6) {
		t.Errorf("v = %v", got["v"])
	}
	n, _ := c.Count(nil)
	if n != 1 {
		t.Errorf("count = %d", n)
	}
}

func TestFindAndModifyClaimsAtomically(t *testing.T) {
	c := seedTasks(t)
	got, err := c.FindAndModify(doc(`{"state": "ready"}`), doc(`{"$set": {"state": "claimed"}}`), []string{"-priority"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got["_id"] != "t2" || got["state"] != "claimed" {
		t.Errorf("claimed %v state %v", got["_id"], got["state"])
	}
	// returnNew=false returns the pre-image.
	got2, err := c.FindAndModify(doc(`{"state": "ready"}`), doc(`{"$set": {"state": "claimed"}}`), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if got2["state"] != "ready" {
		t.Errorf("pre-image state = %v", got2["state"])
	}
	if _, err := c.FindAndModify(doc(`{"state": "ready"}`), doc(`{"$set": {"state": "x"}}`), nil, true); !errors.Is(err, ErrNotFound) {
		t.Errorf("exhausted queue err = %v", err)
	}
}

func TestFindAndModifyConcurrentWorkersGetDistinctJobs(t *testing.T) {
	c := MustOpenMemory().C("engines")
	const jobs = 200
	for i := 0; i < jobs; i++ {
		c.Insert(document.D{"_id": fmt.Sprintf("j%03d", i), "state": "ready"})
	}
	var mu sync.Mutex
	claimed := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				got, err := c.FindAndModify(
					document.D{"state": "ready"},
					document.D{"$set": document.D{"state": "claimed", "worker": int64(worker)}},
					nil, true)
				if errors.Is(err, ErrNotFound) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				claimed[got["_id"].(string)]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(claimed) != jobs {
		t.Fatalf("claimed %d distinct jobs, want %d", len(claimed), jobs)
	}
	for id, n := range claimed {
		if n != 1 {
			t.Errorf("job %s claimed %d times", id, n)
		}
	}
}

func TestRemove(t *testing.T) {
	c := seedTasks(t)
	n, err := c.Remove(doc(`{"state": "ready"}`))
	if err != nil || n != 2 {
		t.Fatalf("removed %d err=%v", n, err)
	}
	total, _ := c.Count(nil)
	if total != 2 {
		t.Errorf("left %d", total)
	}
	if err := c.RemoveID("t3"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveID("t3"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestCursorSnapshotIsolation(t *testing.T) {
	c := seedTasks(t)
	cur, err := c.Find(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Remove(nil)
	if cur.Len() != 4 {
		t.Errorf("cursor len = %d", cur.Len())
	}
	count := 0
	for d := cur.Next(); d != nil; d = cur.Next() {
		count++
	}
	if count != 4 {
		t.Errorf("iterated %d", count)
	}
	cur.Rewind()
	if len(cur.All()) != 4 {
		t.Error("rewind failed")
	}
}

func TestCollectionStatsAndStoreStats(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("a")
	c.Insert(doc(`{"v": "abcdef"}`))
	c.EnsureIndex("v")
	st := c.Stats()
	if st.Documents != 1 || st.Bytes <= 0 || len(st.Indexes) != 1 {
		t.Errorf("stats = %+v", st)
	}
	s.C("b").Insert(doc(`{"v": 1}`))
	ss := s.Stats()
	if ss.Collections != 2 || ss.Documents != 2 || ss.Bytes <= 0 {
		t.Errorf("store stats = %+v", ss)
	}
	c.Remove(nil)
	if got := c.Stats(); got.Bytes != 0 || got.Documents != 0 {
		t.Errorf("after remove: %+v", got)
	}
}

func TestStoreCollectionLifecycle(t *testing.T) {
	s := MustOpenMemory()
	s.C("one")
	s.C("two")
	names := s.Collections()
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Errorf("names = %v", names)
	}
	s.DropCollection("one")
	if len(s.Collections()) != 1 {
		t.Error("drop failed")
	}
	if s.C("two") != s.C("two") {
		t.Error("C not idempotent")
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestProfilerRecordsQueries(t *testing.T) {
	s := MustOpenMemory()
	c := s.C("x")
	c.Insert(doc(`{"n": 1}`))
	c.FindAll(nil, nil)
	ops, records := s.Profiler().Totals()
	if ops < 2 {
		t.Errorf("ops = %d", ops)
	}
	if records < 1 {
		t.Errorf("records = %d", records)
	}
	entries := s.Profiler().Entries()
	if len(entries) == 0 {
		t.Fatal("no profile entries")
	}
	found := false
	for _, e := range entries {
		if e.Op == "find" && e.Collection == "x" {
			found = true
		}
	}
	if !found {
		t.Error("find not profiled")
	}
}

func TestProfilerRingWraps(t *testing.T) {
	p := NewProfiler(4)
	for i := 0; i < 10; i++ {
		p.Record(ProfileEntry{Op: fmt.Sprintf("op%d", i)})
	}
	entries := p.Entries()
	if len(entries) != 4 {
		t.Fatalf("len = %d", len(entries))
	}
	if entries[0].Op != "op6" || entries[3].Op != "op9" {
		t.Errorf("ring order: %v ... %v", entries[0].Op, entries[3].Op)
	}
	if NewProfiler(0) == nil {
		t.Error("NewProfiler(0) nil")
	}
}
