package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Request kinds.
const (
	opRead   = "read"
	opBulk   = "bulkWrite"
	opInsert = "insertMany"
)

// hotSetSize is the number of distinct portal reads; it fits the
// 4096-entry result cache many times over.
const hotSetSize = 256

// request is one REST call of a workload, fully rendered from the seed.
type request struct {
	op     string // opRead, opBulk or opInsert
	method string
	path   string
	body   []byte
	// idKey names the response-row field that identifies a result row:
	// material_id for GET /materials, _id for query, "_id:n" for an
	// aggregate's group rows (group key plus count).
	idKey string
	// ordered reports whether the API defines the row order (an explicit
	// sort), so the check compares order and not just membership.
	ordered bool
	// notes lists the (document id, note) pairs a bulkWrite pushes, one
	// per op; ids lists the documents an insertMany writes.
	notes []note
	ids   []string
}

type note struct{ id, text string }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only generated maps of strings and numbers reach here
	}
	return b
}

func getRequest(path, idKey string) *request {
	return &request{op: opRead, method: "GET", path: path, idKey: idKey}
}

func postRead(path string, body any, idKey string, ordered bool) *request {
	return &request{op: opRead, method: "POST", path: path, body: mustJSON(body), idKey: idKey, ordered: ordered}
}

// mix64 is the splitmix64 finalizer: a per-index hash, so request k of a
// stream depends only on (seed, k), whichever client sends it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// indexRand returns a generator private to request k of a stream.
func indexRand(seed int64, stream uint64, k int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)^mix64(stream<<32|uint64(k))) >> 1)))
}

// streams holds every workload's generated inputs.
type streams struct {
	seed int64
	c    *corpus
	hot  []*request
	// hotIDs are the documents the hot reads touch, targets of half the
	// publish_mixed corrections.
	hotIDs []string
	// hotDraw is the Zipf-distributed sequence of hot-set indices that
	// portal_hot and publish_mixed's reads replay, cyclically.
	hotDraw []int
	// systems are distinct chemical systems for api_scan's chemsys GETs.
	systems []string
}

// newStreams derives all request streams from the corpus and seed.
func newStreams(seed int64, c *corpus) *streams {
	s := &streams{seed: seed, c: c}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	s.hot, s.hotIDs = genHotSet(rng, c)
	zipf := rand.NewZipf(rng, 1.1, 1, hotSetSize-1)
	s.hotDraw = make([]int, 1<<16)
	for i := range s.hotDraw {
		s.hotDraw[i] = int(zipf.Uint64())
	}
	s.systems = genSystems(seed, c)
	return s
}

// hotKinds fixes the kind of the hot read at each popularity rank
// (rank mod 10): property GETs (p), formula GETs (f), small queries (q)
// and chemsys GETs (c). Every seed thus sends the same mix at every
// popularity level. Under Zipf(1.1) the pattern gives p 34%, f 30%,
// q 12% and c 24% of reads; in publish_mixed, where writes keep the
// cache cold, reads cost p < f < q < c, so the median falls inside the
// formula GETs rather than on a boundary between two kinds, where a
// small shift of the mix would move it far.
var hotKinds = [10]byte{'p', 'c', 'f', 'c', 'p', 'f', 'q', 'f', 'f', 'q'}

// genHotSet draws the 256 distinct portal reads, most popular first:
// formula GETs, property GETs, binary chemsys GETs and small sorted
// queries with limit 20. Within a kind, results are about the same size
// under every seed, so the share of each kind, not the luck of the draw,
// sets the latency percentiles. It also returns the documents the
// property GETs read.
func genHotSet(rng *rand.Rand, c *corpus) ([]*request, []string) {
	props := []string{"band_gap", "energy", "density", "formula", "nelectrons", "structure"}
	chem := middleBinaries(c, hotSetSize/len(hotKinds)*4)
	var hot []*request
	var ids []string
	seen := map[string]bool{}
	for len(hot) < hotSetSize {
		var r *request
		var id string
		switch hotKinds[len(hot)%len(hotKinds)] {
		case 'f':
			f := c.formulas[rng.Intn(len(c.formulas))]
			r = getRequest("/rest/v1/materials/"+f+"/vasp", "material_id")
		case 'p':
			id = corpusID(rng.Intn(c.n))
			r = getRequest("/rest/v1/materials/"+id+"/vasp/"+props[rng.Intn(len(props))], "material_id")
		case 'c':
			r = getRequest("/rest/v1/materials/"+chem[rng.Intn(len(chem))]+"/vasp", "material_id")
		default:
			// Neither O nor Li, so every such query matches a few hundred
			// documents before the limit.
			el := elementPool[2+rng.Intn(len(elementPool)-2)]
			r = postRead("/rest/v1/query", map[string]any{
				"criteria":   map[string]any{"elements": el, "band_gap": map[string]any{"$gt": round(rng.Float64()*3, 2)}},
				"properties": []string{"pretty_formula", "band_gap", "energy", "elements"},
				"sort":       []string{"band_gap", "_id"},
				"limit":      20,
			}, "_id", true)
		}
		key := r.path + string(r.body)
		if seen[key] {
			continue
		}
		seen[key] = true
		if id != "" {
			ids = append(ids, id)
		}
		hot = append(hot, r)
	}
	return hot, ids
}

// system is a chemical system and the number of corpus documents in it.
type system struct {
	name string
	n    int
}

// sortBySize orders systems by document count, then by name.
func sortBySize(all []system) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n < all[j].n
		}
		return all[i].name < all[j].name
	})
}

// middleBinaries returns the n oxygen-free binary chemical systems whose
// chemsys GET result sizes lie closest to the median, so every hot
// chemsys GET costs about the same.
func middleBinaries(c *corpus, n int) []string {
	var all []system
	for i, a := range elementPool {
		for _, b := range elementPool[i+1:] {
			if a == "O" || b == "O" {
				continue
			}
			if k := c.chemsysMatches([]string{a, b}); k > 0 {
				all = append(all, system{a + "-" + b, k})
			}
		}
	}
	sortBySize(all)
	lo := max(0, len(all)/2-n/2)
	out := make([]string, 0, n)
	for _, s := range all[lo:min(lo+n, len(all))] {
		out = append(out, s.name)
	}
	return out
}

// genSystems lists distinct ternary and quaternary chemical systems that
// contain O or Li and match at least 20 documents, ordered so that any
// run of consecutive entries spans the range of result sizes evenly:
// sorted by size, then visited along a golden-ratio sequence.
func genSystems(seed int64, c *corpus) []string {
	var all []system
	others := elementPool[2:]
	for _, anchor := range []string{"O", "Li"} {
		for i := range others {
			for j := i + 1; j < len(others); j++ {
				cands := [][]string{{anchor, others[i], others[j]}}
				for k := j + 1; k < len(others) && k < j+4; k++ {
					cands = append(cands, []string{anchor, others[i], others[j], others[k]})
				}
				for _, els := range cands {
					if n := c.chemsysMatches(els); n >= 20 {
						all = append(all, system{strings.Join(els, "-"), n})
					}
				}
			}
		}
	}
	sortBySize(all)
	out := make([]string, 0, len(all))
	used := make([]bool, len(all))
	for j := range all {
		i := int(spread(seed, systemsStream, j) * float64(len(all)))
		for used[i] {
			i = (i + 1) % len(all)
		}
		used[i] = true
		out = append(out, all[i].name)
	}
	return out
}

// portal returns request k of portal_hot: a Zipf draw over the hot set.
func (s *streams) portal(k int) *request {
	return s.hot[s.hotDraw[k%len(s.hotDraw)]]
}

// systemsStream is genSystems' spread stream; scan uses streams 0 to 3,
// one per request kind.
const systemsStream = 4

// spread returns the j-th point of a golden-ratio sequence in [0, 1)
// started at a seeded offset: any run of consecutive points covers the
// interval evenly, so a short window sees the same mix of result sizes
// under every seed.
func spread(seed int64, stream uint64, j int) float64 {
	off := float64(mix64(uint64(seed)^stream)>>11) / (1 << 53)
	x := off + float64(j)*0.6180339887498949
	return x - float64(int64(x))
}

// resultSize maps u in [0, 1) log-uniformly onto 20..1000 documents.
func resultSize(u float64) int {
	return int(20 * math.Pow(50, u))
}

// scan returns request k of api_scan, a rotation of four scripted
// queries whose result sizes run log-uniformly from 20 to 1000
// documents. Every request is distinct: each numeric bound carries a
// k-derived offset far below the data's resolution, and chemsys GETs
// walk a list of distinct systems, so no result cache entry is reused.
func (s *streams) scan(k int) *request {
	rng := indexRand(s.seed, 1, k)
	kind, j := k%4, k/4
	u := spread(s.seed, uint64(kind), j)
	eps := float64(k) * 1e-7
	switch kind {
	case 0:
		// The paper's query, cut at the electron count that admits about
		// resultSize(u) of the Li-O documents.
		n := s.c.liO[min(resultSize(u), len(s.c.liO))-1] + 0.5 + eps
		return postRead("/rest/v1/query", map[string]any{
			"criteria": map[string]any{"elements": map[string]any{"$all": []string{"Li", "O"}}, "nelectrons": map[string]any{"$lte": n}},
		}, "_id", false)
	case 1:
		sys := s.systems[j%len(s.systems)]
		return getRequest("/rest/v1/materials/"+sys+"/vasp", "material_id")
	case 2:
		limit := resultSize(u)
		lo := round(rng.Float64()*4, 2) + eps
		return postRead("/rest/v1/query", map[string]any{
			"criteria":   map[string]any{"band_gap": map[string]any{"$gte": lo, "$lt": lo + 0.6 + float64(limit)/1000}},
			"sort":       []string{"band_gap", "_id"},
			"limit":      limit,
			"properties": []string{"pretty_formula", "band_gap", "energy", "nelements", "elements"},
		}, "_id", true)
	default:
		el := elementPool[2+rng.Intn(len(elementPool)-2)]
		lo := round(rng.Float64()*3, 2) + eps
		return postRead("/rest/v1/aggregate", map[string]any{
			"pipeline": []any{
				map[string]any{"$match": map[string]any{"elements": el, "band_gap": map[string]any{"$gte": lo, "$lt": lo + 0.5 + 2.5*u}}},
				map[string]any{"$group": map[string]any{"_id": "$nelements", "n": map[string]any{"$sum": 1}, "gap": map[string]any{"$avg": "$band_gap"}}},
				map[string]any{"$sort": map[string]any{"_id": 1}},
			},
		}, "_id:n", true)
	}
}

// publishKinds interleaves publish_mixed's operations in a fixed cycle
// of 20: 12 reads (R), 5 bulkWrites (B), 3 insertManys (I).
const publishKinds = "RBRRIRBRRRBRIRRBRRIB"

// publish returns request k of publish_mixed: 60% portal reads, 25%
// bulkWrite corrections of 1 to 8 documents (cycling), 15% insertMany of
// 50 new documents.
func (s *streams) publish(k int) *request {
	rng := indexRand(s.seed, 2, k)
	cycle, slot := k/len(publishKinds), k%len(publishKinds)
	switch publishKinds[slot] {
	case 'R':
		return s.hot[s.hotDraw[(k*7919)%len(s.hotDraw)]]
	case 'B':
		nops := 1 + (cycle*5+strings.Count(publishKinds[:slot], "B"))%8
		ops := make([]any, nops)
		notes := make([]note, nops)
		for i := range ops {
			// Half the corrections hit hot-set documents, so the two
			// clients update the same documents concurrently.
			var id string
			if rng.Intn(2) == 0 {
				id = s.hotIDs[rng.Intn(len(s.hotIDs))]
			} else {
				id = corpusID(rng.Intn(s.c.n))
			}
			text := fmt.Sprintf("fix-%d-%d", k, i)
			notes[i] = note{id: id, text: text}
			ops[i] = map[string]any{
				"op":     "updateOne",
				"filter": map[string]any{"_id": id},
				"update": map[string]any{
					"$set":  map[string]any{"band_gap": round(rng.Float64()*6, 4)},
					"$push": map[string]any{"history": text},
				},
			}
		}
		return &request{op: opBulk, method: "POST", path: "/rest/v1/bulkWrite", notes: notes,
			body: mustJSON(map[string]any{"ops": ops})}
	default:
		docs := make([]any, 50)
		ids := make([]string, 50)
		for i := range docs {
			cp := s.c.comps[rng.Intn(len(s.c.comps))]
			ids[i] = fmt.Sprintf("mat-n%07d-%02d", k, i)
			docs[i] = map[string]any(materialDoc(rng, ids[i], cp))
		}
		return &request{op: opInsert, method: "POST", path: "/rest/v1/insertMany", ids: ids,
			body: mustJSON(map[string]any{"docs": docs})}
	}
}
