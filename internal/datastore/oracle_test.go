package datastore

import (
	"fmt"
	"math/rand"
	"testing"

	"matproj/internal/document"
)

// The scan-vs-index oracle: for every randomly generated corpus, index
// set, filter, and find-option combination, the planner-chosen execution
// must return exactly the documents — same ids, same order, same
// projected shapes — as a twin collection holding identical documents
// and no indexes at all (whose plans are always naive full scans). The
// planner only ever has to be a superset oracle (every path re-verifies
// against the full filter), so any divergence here is a real planner or
// index bug, not an estimation inaccuracy.
//
// TestOracleScanVsIndex runs >=1200 seeded corpus/query pairs; check.sh
// additionally runs it under -race (readers rebuilding the lazy sorted
// key list share the collection read lock).

// oracleGen generates corpora, filters, and options from one seeded rng.
type oracleGen struct {
	rng *rand.Rand
}

// value draws a random document value mixing the types the encoder and
// comparator have to agree on.
func (g *oracleGen) value(depth int) any {
	switch g.rng.Intn(12) {
	case 0:
		return nil
	case 1:
		return int64(g.rng.Intn(11) - 5)
	case 2:
		return float64(g.rng.Intn(11)-5) + 0.5
	case 3:
		// Exact collisions with the int64 case above (3 vs 3.0).
		return float64(g.rng.Intn(11) - 5)
	case 4:
		// Beyond 2^53: float64 rounding territory.
		return int64(1<<53) + int64(g.rng.Intn(3))
	case 5:
		return 9.007199254740992e15 // float64(1<<53)
	case 6, 7:
		return string(rune('a' + g.rng.Intn(4)))
	case 8:
		return g.rng.Intn(2) == 0
	case 9:
		if depth > 0 {
			n := g.rng.Intn(3)
			arr := make([]any, n)
			for i := range arr {
				arr[i] = g.value(depth - 1)
			}
			return arr
		}
		return int64(g.rng.Intn(5))
	case 10:
		if depth > 0 {
			return document.D{"x": g.value(depth - 1)}
		}
		return "z"
	default:
		return int64(g.rng.Intn(200))
	}
}

var oraclePaths = []string{"a", "b", "c", "s", "m.x", "tags"}

// doc draws one random document: each field present with probability
// ~3/4, arrays concentrated on "tags", a nested doc under "m".
func (g *oracleGen) doc(i int) document.D {
	d := document.D{"_id": fmt.Sprintf("d%04d", i)}
	for _, f := range []string{"a", "b", "c", "s"} {
		if g.rng.Intn(4) > 0 {
			d[f] = g.value(1)
		}
	}
	if g.rng.Intn(4) > 0 {
		d["m"] = document.D{"x": g.value(1)}
	}
	if g.rng.Intn(3) > 0 {
		n := g.rng.Intn(4)
		tags := make([]any, n)
		for j := range tags {
			tags[j] = string(rune('p' + g.rng.Intn(4)))
		}
		d["tags"] = tags
	}
	return document.NormalizeDoc(d)
}

// filter draws a random conjunctive filter over 1-3 paths.
func (g *oracleGen) filter() document.D {
	f := document.D{}
	n := 1 + g.rng.Intn(3)
	perm := g.rng.Perm(len(oraclePaths))
	for _, pi := range perm[:n] {
		p := oraclePaths[pi]
		switch g.rng.Intn(5) {
		case 0: // equality
			f[p] = g.value(1)
		case 1: // one- or two-sided range
			cond := document.D{}
			ops := []string{"$gt", "$gte", "$lt", "$lte"}
			cond[ops[g.rng.Intn(2)]] = g.value(0)
			if g.rng.Intn(2) == 0 {
				cond[ops[2+g.rng.Intn(2)]] = g.value(0)
			}
			f[p] = cond
		case 2: // $in
			k := 1 + g.rng.Intn(4)
			vals := make([]any, k)
			for i := range vals {
				vals[i] = g.value(0)
			}
			f[p] = document.D{"$in": vals}
		case 3: // containment on the array-bearing path
			if p == "tags" {
				f[p] = document.D{"$all": []any{string(rune('p' + g.rng.Intn(4)))}}
			} else {
				f[p] = g.value(0)
			}
		default: // equality against a composite value
			f[p] = g.value(2)
		}
	}
	return document.NormalizeDoc(f)
}

// opts draws random find options; hintable lists the subject collection's
// index names (a random one is forced as a Hint ~1/6 of the time).
func (g *oracleGen) opts(hintable []string) *FindOpts {
	if g.rng.Intn(4) == 0 {
		return nil
	}
	o := &FindOpts{}
	if g.rng.Intn(2) == 0 {
		n := 1 + g.rng.Intn(2)
		perm := g.rng.Perm(len(oraclePaths))
		for _, pi := range perm[:n] {
			p := oraclePaths[pi]
			if g.rng.Intn(2) == 0 {
				p = "-" + p
			}
			o.Sort = append(o.Sort, p)
		}
	}
	if g.rng.Intn(3) == 0 {
		o.Skip = g.rng.Intn(6)
	}
	if g.rng.Intn(3) == 0 {
		o.Limit = 1 + g.rng.Intn(10)
	}
	if g.rng.Intn(4) == 0 {
		o.Projection = document.D{"a": int64(1), "m.x": int64(1)}
	}
	if len(hintable) > 0 && g.rng.Intn(6) == 0 {
		o.Hint = hintable[g.rng.Intn(len(hintable))]
	}
	return o
}

// oracleIndexSets is the menu of index layouts a corpus draws from
// (including the empty layout: subject == truth except for planning).
var oracleIndexSets = [][][]string{
	{},
	{{"a"}},
	{{"a", "b"}},
	{{"s"}, {"a"}},
	{{"m.x"}},
	{{"tags"}},
	{{"a", "b"}, {"b"}, {"s"}},
	{{"c", "s"}},
}

func TestOracleScanVsIndex(t *testing.T) {
	const (
		corpora       = 40
		docsPerCorpus = 120
		queriesPer    = 30 // 40 × 30 = 1200 seeded pairs
	)
	for ci := 0; ci < corpora; ci++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(int64(1000 + ci)))}
		subject := MustOpenMemory().C("subject")
		truth := MustOpenMemory().C("truth")
		for i := 0; i < docsPerCorpus; i++ {
			d := g.doc(i)
			if _, err := subject.Insert(d.Copy()); err != nil {
				t.Fatal(err)
			}
			if _, err := truth.Insert(d); err != nil {
				t.Fatal(err)
			}
		}
		// Random index layout, plus single-field indexes half the time.
		layout := oracleIndexSets[g.rng.Intn(len(oracleIndexSets))]
		for _, paths := range layout {
			subject.EnsureIndex(paths...)
		}
		if g.rng.Intn(2) == 0 {
			subject.EnsureIndex(oraclePaths[g.rng.Intn(4)])
		}
		if g.rng.Intn(3) == 0 {
			subject.EnsureIndex("tags")
		}
		hintable := subject.Stats().Indexes

		for qi := 0; qi < queriesPer; qi++ {
			filter := g.filter()
			opts := g.opts(hintable)
			var truthOpts *FindOpts
			if opts != nil {
				cp := *opts
				cp.Hint = "" // truth has no indexes to hint
				truthOpts = &cp
			}
			got, err := subject.FindAll(filter, opts)
			if err != nil {
				t.Fatalf("corpus %d query %d: subject: %v (filter %v)", ci, qi, err, filter)
			}
			want, err := truth.FindAll(filter, truthOpts)
			if err != nil {
				t.Fatalf("corpus %d query %d: truth: %v (filter %v)", ci, qi, err, filter)
			}
			describe := func() string {
				plan, _ := subject.Explain(filter, opts)
				return fmt.Sprintf("corpus %d query %d\nfilter: %v\nopts: %+v\nplan: %v", ci, qi, filter, opts, plan)
			}
			if len(got) != len(want) {
				t.Fatalf("%s\nsubject %d docs, truth %d", describe(), len(got), len(want))
			}
			for i := range got {
				if got[i]["_id"] != want[i]["_id"] {
					t.Fatalf("%s\nid order diverges at %d: subject %v, truth %v", describe(), i, got[i]["_id"], want[i]["_id"])
				}
				if !document.Equal(map[string]any(got[i]), map[string]any(want[i])) {
					t.Fatalf("%s\ndoc %d differs:\nsubject %v\ntruth   %v", describe(), i, got[i], want[i])
				}
			}
			ng, err := subject.Count(filter)
			if err != nil {
				t.Fatalf("%s\nsubject count: %v", describe(), err)
			}
			nw, err := truth.Count(filter)
			if err != nil {
				t.Fatalf("%s\ntruth count: %v", describe(), err)
			}
			if ng != nw {
				t.Fatalf("%s\nsubject count %d, truth count %d", describe(), ng, nw)
			}
		}
	}
}

// TestOracleSurvivesMutations re-runs a smaller oracle sweep after
// updates and removes, so index maintenance (add/remove/replace paths)
// is covered, not just the backfill.
func TestOracleSurvivesMutations(t *testing.T) {
	for ci := 0; ci < 8; ci++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(int64(7000 + ci)))}
		subject := MustOpenMemory().C("subject")
		truth := MustOpenMemory().C("truth")
		for i := 0; i < 80; i++ {
			d := g.doc(i)
			subject.Insert(d.Copy())
			truth.Insert(d)
		}
		subject.EnsureIndex("a", "b")
		subject.EnsureIndex("tags")
		subject.EnsureIndex("s")

		// Random churn applied identically to both sides.
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("d%04d", g.rng.Intn(80))
			switch g.rng.Intn(3) {
			case 0:
				upd := document.D{"$set": document.D{"a": g.value(1), "b": g.value(0)}}
				if _, err := subject.UpdateMany(document.D{"_id": id}, upd); err != nil {
					t.Fatal(err)
				}
				if _, err := truth.UpdateMany(document.D{"_id": id}, upd); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := subject.Remove(document.D{"_id": id}); err != nil {
					t.Fatal(err)
				}
				if _, err := truth.Remove(document.D{"_id": id}); err != nil {
					t.Fatal(err)
				}
			default:
				d := g.doc(1000 + i)
				subject.Insert(d.Copy())
				truth.Insert(d)
			}
		}

		for qi := 0; qi < 20; qi++ {
			filter := g.filter()
			opts := g.opts(nil)
			got, err := subject.FindAll(filter, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := truth.FindAll(filter, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("corpus %d query %d (filter %v, opts %+v): subject %d docs, truth %d",
					ci, qi, filter, opts, len(got), len(want))
			}
			for i := range got {
				if got[i]["_id"] != want[i]["_id"] {
					t.Fatalf("corpus %d query %d (filter %v, opts %+v): id order diverges at %d",
						ci, qi, filter, opts, i)
				}
			}
		}
	}
}
