package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
	"matproj/internal/restapi"
	"matproj/internal/shard"
)

// maxSamples caps the reads kept for the reference comparison.
const maxSamples = 64

// sample is one read response kept for the reference comparison. Rows
// are decoded after the window, so sampling adds no work to it.
type sample struct {
	req  *request
	rows []json.RawMessage
}

// ledger collects, from the replies of a run, what the checks need: a
// seeded sample of read results and every acknowledged write.
type ledger struct {
	seed  int64
	every uint64 // sample read k when mix64(seed^k) % every == 0; 0 samples none

	mu       sync.Mutex
	samples  []sample
	inserted []string // acknowledged insertMany ids
	notes    []note   // acknowledged $push notes
	// unacked counts the documents of insertMany requests that failed.
	// A failed request may still have been applied: the router reports a
	// write failed when one member rejects it after another accepted it.
	unacked int
	// failedReads counts reads that did not succeed; firstFailedRead
	// describes the first. No read fails on a healthy deployment: the
	// rate limit is far above the offered load and no member goes down.
	failedReads     int
	firstFailedRead string
}

func newLedger(seed int64, every uint64) *ledger {
	return &ledger{seed: seed, every: every}
}

// check inspects one reply and reports whether the request succeeded:
// a 200 with a valid envelope whose write acknowledgements match exactly
// what was sent. Read results are judged later, against the reference;
// a read that failed outright is a correctness problem of its own.
func (l *ledger) check(k int, r *request, rep reply) bool {
	if !rep.ok() {
		l.mu.Lock()
		defer l.mu.Unlock()
		switch r.op {
		case opInsert:
			l.unacked += len(r.ids)
		case opRead:
			if l.failedReads == 0 {
				l.firstFailedRead = fmt.Sprintf("%s %s %s: status %d, error %v %q", r.method, r.path, r.body, rep.status, rep.err, rep.env.Error)
			}
			l.failedReads++
		}
		return false
	}
	switch r.op {
	case opRead:
		if l.every == 0 || mix64(uint64(l.seed)^uint64(k))%l.every != 0 {
			return true
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if len(l.samples) < maxSamples {
			l.samples = append(l.samples, sample{req: r, rows: rep.env.Response})
		}
		return true
	case opBulk:
		rows, err := decodeRows(rep.env.Response)
		if err != nil || len(rows) != len(r.notes) {
			return false
		}
		good := true
		l.mu.Lock()
		defer l.mu.Unlock()
		for i, row := range rows {
			if row["error"] != nil || fmt.Sprint(row["matched"]) != "1" || fmt.Sprint(row["modified"]) != "1" {
				good = false
				continue
			}
			l.notes = append(l.notes, r.notes[i])
		}
		return good
	default:
		ids, err := rowIDs(rep.env.Response, "_id")
		l.mu.Lock()
		defer l.mu.Unlock()
		if err != nil || len(ids) != len(r.ids) {
			l.unacked += len(r.ids)
			return false
		}
		for i, id := range ids {
			if id != r.ids[i] {
				l.unacked += len(r.ids)
				return false
			}
		}
		l.inserted = append(l.inserted, ids...)
		return true
	}
}

func decodeRows(raw []json.RawMessage) ([]map[string]any, error) {
	rows := make([]map[string]any, len(raw))
	for i, r := range raw {
		dec := json.NewDecoder(bytes.NewReader(r))
		dec.UseNumber()
		if err := dec.Decode(&rows[i]); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return rows, nil
}

// rowIDs extracts the identifying field of every response row. The key
// "_id:n" renders an aggregate group as its key and count.
func rowIDs(raw []json.RawMessage, key string) ([]string, error) {
	rows, err := decodeRows(raw)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		if key == "_id:n" {
			out[i] = fmt.Sprintf("%v:%v", row["_id"], row["n"])
			continue
		}
		v, ok := row[key]
		if !ok {
			return nil, fmt.Errorf("row %d has no %s", i, key)
		}
		out[i] = fmt.Sprint(v)
	}
	return out, nil
}

// compareIDs reports the first difference between a reference result
// and a served one; unordered results compare as sorted lists.
func compareIDs(want, got []string, ordered bool) error {
	if !ordered {
		want = append([]string(nil), want...)
		got = append([]string(nil), got...)
		sort.Strings(want)
		sort.Strings(got)
	}
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("row %d is %s, reference has %s", i, got[i], want[i])
		}
	}
	return nil
}

// reference is an uncached, unsharded, index-free in-memory deployment
// of the same corpus behind the same REST handler: the oracle for read
// results.
type reference struct {
	api http.Handler
	key string
}

func newReference(docs []document.D) (*reference, error) {
	store := datastore.MustOpenMemory()
	if _, err := store.C("materials").InsertMany(docs); err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	eng := queryengine.New(store)
	eng.AddAlias("materials", "formula", "pretty_formula")
	eng.AddAlias("materials", "energy", "final_energy")
	eng.AddAlias("materials", "bandgap", "band_gap")
	local := datastore.MustOpenMemory()
	auth := restapi.NewAuth(local)
	key, err := auth.Signup("google", "reference@example.com")
	if err != nil {
		return nil, fmt.Errorf("reference signup: %w", err)
	}
	return &reference{api: restapi.NewServer(eng, auth, local), key: key}, nil
}

// ids runs a read against the reference and returns its result ids.
func (ref *reference) ids(r *request) ([]string, error) {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	req.Header.Set("X-API-KEY", ref.key)
	w := httptest.NewRecorder()
	ref.api.ServeHTTP(w, req)
	var env envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		return nil, fmt.Errorf("reference %s %s: %w", r.method, r.path, err)
	}
	if w.Code != 200 || !env.Valid {
		return nil, fmt.Errorf("reference %s %s: status %d: %s", r.method, r.path, w.Code, env.Error)
	}
	return rowIDs(env.Response, r.idKey)
}

// readProblems reports the reads that failed outright, as one line.
func (l *ledger) readProblems() []string {
	if l.failedReads == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d reads failed; the first: %s", l.failedReads, l.firstFailedRead)}
}

// checkReads replays the sampled reads against the reference and
// returns one line per mismatch.
func checkReads(ref *reference, samples []sample) ([]string, error) {
	var bad []string
	memo := map[*request][]string{}
	for _, s := range samples {
		want, ok := memo[s.req]
		if !ok {
			var err error
			if want, err = ref.ids(s.req); err != nil {
				return nil, err
			}
			memo[s.req] = want
		}
		got, err := rowIDs(s.rows, s.req.idKey)
		if err == nil {
			err = compareIDs(want, got, s.req.ordered)
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s %s %s: %v", s.req.method, s.req.path, s.req.body, err))
		}
	}
	return bad, nil
}

// checkPublish verifies publish_mixed's writes after the clients stop:
// every acknowledged insert is readable through REST, the routed count
// is the corpus plus the acknowledged inserts (plus at most the documents
// of failed insertMany requests, whose outcome the API leaves open), and
// every acknowledged note appears exactly once in its document's history
// on the primary. It returns the problems and the number of documents
// from failed requests that were applied anyway.
func checkPublish(d *deployment, cl *client, l *ledger, corpusDocs int) (bad []string, appliedUnacked int) {
	for i := 0; i < len(l.inserted); i += 200 {
		batch := l.inserted[i:min(i+200, len(l.inserted))]
		r := postRead("/rest/v1/query", map[string]any{
			"criteria": map[string]any{"_id": map[string]any{"$in": batch}}, "properties": []string{"_id"},
		}, "_id", false)
		rep := cl.do(r)
		got, err := rowIDs(rep.env.Response, "_id")
		if !rep.ok() || err != nil {
			bad = append(bad, fmt.Sprintf("reading acknowledged inserts: status %d: %v %v", rep.status, rep.err, err))
			continue
		}
		if err := compareIDs(batch, got, false); err != nil {
			bad = append(bad, fmt.Sprintf("acknowledged inserts via REST: %v", err))
		}
	}
	n, err := d.router.C("materials").Count(nil)
	if err != nil {
		bad = append(bad, fmt.Sprintf("routed count: %v", err))
	} else if want := corpusDocs + len(l.inserted); n < want || n > want+l.unacked {
		bad = append(bad, fmt.Sprintf("routed count %d, want corpus %d + acknowledged inserts %d (+ up to %d from failed requests)",
			n, corpusDocs, len(l.inserted), l.unacked))
	} else {
		appliedUnacked = n - want
	}
	primaries := map[int]*datastore.Store{}
	for gi := 0; gi < shardGroups; gi++ {
		url := d.router.Primary(gi)
		for _, m := range d.group(gi) {
			if m.srv != nil && m.srv.url == url {
				primaries[gi] = m.store
			}
		}
	}
	for _, nt := range l.notes {
		st := primaries[shard.HashShard(nt.id, shardGroups)]
		if st == nil {
			bad = append(bad, fmt.Sprintf("no primary for %s", nt.id))
			continue
		}
		doc, err := st.C("materials").FindID(nt.id)
		if err != nil {
			bad = append(bad, fmt.Sprintf("note %s: %s: %v", nt.text, nt.id, err))
			continue
		}
		seen := 0
		for _, h := range doc.GetArray("history") {
			if h == nt.text {
				seen++
			}
		}
		if seen != 1 {
			bad = append(bad, fmt.Sprintf("note %s appears %d times in %s on the primary", nt.text, seen, nt.id))
		}
	}
	return bad, appliedUnacked
}

// replicaReport diffs each replica against its group's primary: the
// number of documents missing or different on a replica, and the sum
// of replication-generation gaps. Reported, not gated: replicas that
// apply concurrent writes in different orders diverge today.
func replicaReport(d *deployment) (divergent, lagGens int, err error) {
	for gi := 0; gi < shardGroups; gi++ {
		g := d.group(gi)
		primary := g[0]
		for _, m := range g {
			if m.srv != nil && m.srv.url == d.router.Primary(gi) {
				primary = m
			}
		}
		want, err := primary.store.C("materials").FindAll(nil, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("primary scan: %w", err)
		}
		for _, m := range g {
			if m == primary {
				continue
			}
			have, err := m.store.C("materials").FindAll(nil, nil)
			if err != nil {
				return 0, 0, fmt.Errorf("replica scan: %w", err)
			}
			byID := make(map[any]document.D, len(have))
			for _, doc := range have {
				byID[doc["_id"]] = doc
			}
			for _, doc := range want {
				if other, ok := byID[doc["_id"]]; !ok || !document.Equal(map[string]any(doc), map[string]any(other)) {
					divergent++
				}
				delete(byID, doc["_id"])
			}
			divergent += len(byID)
			if gap := int(primary.store.ReplGen()) - int(m.store.ReplGen()); gap > 0 {
				lagGens += gap
			}
		}
	}
	return divergent, lagGens, nil
}

// reopenAll closes every member, reopens its journal directory with
// datastore.Open, and checks that each acknowledged insert is present on
// its group's primary after the reopen. It returns the mean reopen
// (replay) time in seconds.
func reopenAll(d *deployment, inserted []string) (float64, []string, error) {
	var bad []string
	var total time.Duration
	primaries := map[string]bool{}
	for gi := 0; gi < shardGroups; gi++ {
		primaries[d.router.Primary(gi)] = true
	}
	d.api.stop()
	d.api = nil
	d.router.Close()
	for _, m := range d.members {
		primary := primaries[m.srv.url]
		if err := m.closeNode(); err != nil {
			return 0, nil, fmt.Errorf("close peer %d: %w", m.index, err)
		}
		start := time.Now()
		st, err := datastore.Open(m.dir)
		total += time.Since(start)
		if err != nil {
			return 0, nil, fmt.Errorf("reopen peer %d: %w", m.index, err)
		}
		missing := 0
		for _, id := range inserted {
			if !primary || shard.HashShard(id, shardGroups) != m.index%shardGroups {
				continue
			}
			if _, err := st.C("materials").FindID(id); err != nil {
				missing++
			}
		}
		if missing > 0 {
			bad = append(bad, fmt.Sprintf("primary peer %d lost %d acknowledged inserts across reopen", m.index, missing))
		}
		if err := st.Close(); err != nil {
			return 0, nil, fmt.Errorf("close reopened peer %d: %w", m.index, err)
		}
	}
	return total.Seconds() / float64(len(d.members)), bad, nil
}
