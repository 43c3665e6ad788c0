package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
)

func TestSameSeedSameRequestStream(t *testing.T) {
	render := func(seed int64) []string {
		c := genCorpus(seed, 2000)
		s := newStreams(seed, c)
		var out []string
		for _, d := range c.docs[:50] {
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		for k := 0; k < 400; k++ {
			for _, r := range []*request{s.portal(k), s.scan(k), s.publish(k)} {
				out = append(out, r.method+" "+r.path+" "+string(r.body))
			}
		}
		return out
	}
	a, b, other := render(7), render(7), render(8)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 rendered item %d two ways:\n%s\n%s", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("seeds 7 and 8 share %d of %d items", same, len(a))
	}
}

func TestScanRequestsNeverRepeat(t *testing.T) {
	s := newStreams(3, genCorpus(3, corpusSize))
	seen := map[string]int{}
	for k := 0; k < 4000; k++ {
		r := s.scan(k)
		key := r.method + " " + r.path + " " + string(r.body)
		if prev, dup := seen[key]; dup {
			t.Fatalf("scan requests %d and %d are identical: %s", prev, k, key)
		}
		seen[key] = k
	}
}

// spanTree is one request through every layer, scattered to two peers,
// plus a background health probe that overlaps it.
func spanTree() []span {
	return []span{
		{Name: "client", Req: 1, Member: -1, Start: 0, End: 100},
		{Name: "restapi", Req: 1, Member: -1, Start: 10, End: 90},
		{Name: "router.find", Req: 1, Member: -1, Start: 20, End: 80},
		{Name: "wire.find", Req: 1, Member: 0, Start: 25, End: 78},
		{Name: "wire.find", Req: 1, Member: 1, Start: 30, End: 75},
		{Name: "node.find", Req: 1, Member: 0, Start: 27, End: 50},
		{Name: "node.find", Req: 1, Member: 1, Start: 35, End: 70},
		{Name: "wire.health", Req: 0, Member: 1, Start: 40, End: 45},
		{Name: "node.health", Req: 0, Member: 1, Start: 41, End: 44},
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := spanTree()
	linkParents(spans)
	byKey := map[string]span{}
	for _, s := range spans {
		byKey[s.Name+"/"+string(rune('0'+s.Member+1))] = s
	}
	parentOf := func(key string) string {
		p := byKey[key].Parent
		for k, s := range byKey {
			if s.ID == p {
				return k
			}
		}
		return "root"
	}
	for child, want := range map[string]string{
		"client/0":      "root",
		"restapi/0":     "client/0",
		"router.find/0": "restapi/0",
		"wire.find/1":   "router.find/0",
		"wire.find/2":   "router.find/0",
		"node.find/1":   "wire.find/1",
		// Inside both wire spans; only the call to its own peer is its parent.
		"node.find/2":   "wire.find/2",
		"wire.health/2": "root",
		"node.health/2": "root",
	} {
		if got := parentOf(child); got != want {
			t.Errorf("parent of %s = %s, want %s", child, got, want)
		}
	}
	self := selfTimes(spans)
	for key, want := range map[string]int64{
		"client/0":      20, // 100 - restapi's 80
		"restapi/0":     20, // 80 - router's 60
		"router.find/0": 7,  // 60 - union of [25,78] and [30,75]
		"wire.find/1":   30, // 53 - node's 23
		"wire.find/2":   10, // 45 - node's 35
		"node.find/2":   35,
		"wire.health/2": 5, // a root: the health node span is not its child
	} {
		if got := self[byKey[key].ID]; got != want {
			t.Errorf("self time of %s = %d, want %d", key, got, want)
		}
	}
}

func TestLayerMetricsFromSpans(t *testing.T) {
	spans := spanTree()
	linkParents(spans)
	m := layerMetrics(tracedPhase{spans: spans, lr: &loopResult{}})
	for name, want := range map[string]float64{
		"restapi.http_ms":     20 / nsPerMs,
		"router.self_ms":      7 / nsPerMs,
		"router.fanout":       2,
		"router.straggler_ms": (53 - 45) / nsPerMs,
		"wire.self_ms":        40 / nsPerMs,
		"rcache.router_hits":  0,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCheckRejectsCorruptedResponses(t *testing.T) {
	c := genCorpus(5, 1500)
	s := newStreams(5, c)
	ref, err := newReference(c.docs)
	if err != nil {
		t.Fatal(err)
	}
	var sorted, unsorted *request
	var sortedIDs, unsortedIDs []string
	for k := 0; sorted == nil || unsorted == nil; k++ {
		r := s.scan(k)
		if r.path != "/rest/v1/query" {
			continue
		}
		ids, err := ref.ids(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) < 3 {
			continue
		}
		if r.ordered && sorted == nil {
			sorted, sortedIDs = r, ids
		} else if !r.ordered && unsorted == nil {
			unsorted, unsortedIDs = r, ids
		}
	}
	mutate := func(ids []string, f func([]string) []string) []string {
		return f(append([]string(nil), ids...))
	}
	swap := func(ids []string) []string { ids[0], ids[1] = ids[1], ids[0]; return ids }
	drop := func(ids []string) []string { return ids[1:] }
	replace := func(ids []string) []string { ids[2] = "mat-999999"; return ids }
	reverse := func(ids []string) []string {
		for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
			ids[i], ids[j] = ids[j], ids[i]
		}
		return ids
	}
	rows := func(r *request, ids []string) sample {
		s := sample{req: r}
		for _, id := range ids {
			s.rows = append(s.rows, json.RawMessage(fmt.Sprintf(`{%q: %q}`, r.idKey, id)))
		}
		return s
	}
	samples := []sample{rows(sorted, sortedIDs), rows(unsorted, unsortedIDs), rows(unsorted, mutate(unsortedIDs, reverse))}
	if bad, err := checkReads(ref, samples); err != nil || len(bad) != 0 {
		t.Fatalf("faithful results rejected: %v %v", bad, err)
	}
	for name, s := range map[string]sample{
		"sorted rows swapped":   rows(sorted, mutate(sortedIDs, swap)),
		"sorted row dropped":    rows(sorted, mutate(sortedIDs, drop)),
		"unsorted row dropped":  rows(unsorted, mutate(unsortedIDs, drop)),
		"unsorted row replaced": rows(unsorted, mutate(unsortedIDs, replace)),
		"row without its id":    {req: unsorted, rows: []json.RawMessage{json.RawMessage(`{"x": 1}`)}},
	} {
		bad, err := checkReads(ref, []sample{s})
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 1 {
			t.Errorf("%s: check passed a corrupted result", name)
		}
	}
	// A read that fails outright never reaches the reference comparison;
	// the ledger itself must turn it into a problem.
	l := newLedger(5, 1)
	for name, rep := range map[string]reply{
		"server error":     {status: 500, env: envelope{Error: "boom"}},
		"invalid envelope": {status: 200, env: envelope{Valid: false}},
		"transport error":  {err: errors.New("connection reset")},
	} {
		if l.check(0, sorted, rep) {
			t.Errorf("read with %s accepted", name)
		}
	}
	if p := l.readProblems(); len(p) != 1 || l.failedReads != 3 || len(l.samples) != 0 {
		t.Errorf("failed reads: problems %v, count %d, samples %d; want one problem for 3 reads, no samples", p, l.failedReads, len(l.samples))
	}
}

func TestCheckRejectsCorruptedWriteAcks(t *testing.T) {
	l := newLedger(1, 0)
	bulk := &request{op: opBulk, notes: []note{{"mat-000001", "fix-1-0"}, {"mat-000002", "fix-1-1"}}}
	rows := func(js ...string) reply {
		rep := reply{status: 200, env: envelope{Valid: true, NResults: len(js)}}
		for _, j := range js {
			rep.env.Response = append(rep.env.Response, json.RawMessage(j))
		}
		return rep
	}
	good := rows(`{"op":"updateOne","matched":1,"modified":1}`, `{"op":"updateOne","matched":1,"modified":1}`)
	if !good.ok() || !l.check(0, bulk, good) || len(l.notes) != 2 {
		t.Fatalf("faithful bulkWrite ack rejected")
	}
	for name, rep := range map[string]reply{
		"op error":    rows(`{"op":"updateOne","matched":1,"modified":1}`, `{"op":"updateOne","matched":0,"modified":0,"error":"boom"}`),
		"no match":    rows(`{"op":"updateOne","matched":1,"modified":1}`, `{"op":"updateOne","matched":0,"modified":0}`),
		"missing row": rows(`{"op":"updateOne","matched":1,"modified":1}`),
	} {
		if l.check(0, bulk, rep) {
			t.Errorf("bulkWrite with %s accepted", name)
		}
	}
	ins := &request{op: opInsert, ids: []string{"mat-n1", "mat-n2"}}
	if l.check(0, ins, rows(`{"_id":"mat-n1"}`, `{"_id":"mat-x"}`)) {
		t.Errorf("insertMany acknowledging a different id accepted")
	}
	bad := good
	bad.env.NResults = 3
	if bad.ok() {
		t.Errorf("envelope whose num_results disagrees with its rows accepted")
	}
}

func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.spec) != len(set.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program reports %d", len(set.spec), len(set.code))
		}
		for i, m := range set.code {
			if set.spec[i].Name != m.name || set.spec[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					i, set.spec[i].Name, set.spec[i].Unit, m.name, m.unit)
			}
		}
	}
}
