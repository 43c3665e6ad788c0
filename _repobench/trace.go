package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    uint64 `json:"req"`    // 0 for background calls (health probes, catch-up pulls)
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // client spans: read, bulkWrite or insertMany
	Member int    `json:"member"`       // wire and node spans: peer index; -1 otherwise
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // client: response body; wire: request plus response body
}

func (s span) dur() int64 { return s.End - s.Start }

// Span name prefixes, one per layer boundary, outermost first.
var layerOrder = []string{"client", "restapi", "router.", "wire.", "node."}

func layerOf(name string) int {
	for i, p := range layerOrder {
		if strings.HasPrefix(name, p) {
			return i
		}
	}
	return -1
}

// recorder collects spans from the benchmark's wrappers around each
// layer. Spans stay in memory until the run ends. The traced phase keeps
// one request in flight, so every span that starts while request r is
// current belongs to r; health probes and catch-up pulls are told apart
// by wire path and recorded as roots.
type recorder struct {
	base    time.Time
	on      atomic.Bool
	current atomic.Uint64 // request id in flight, 0 between requests

	mu      sync.Mutex
	spans   []span
	members map[string]int // host:port -> peer index
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), members: map[string]int{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) addMember(baseURL string, peer int) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.members[u.Host] = peer
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// background reports whether a wire path is control-plane traffic.
func background(path string) bool {
	return path == wire.PathHealth || strings.HasPrefix(path, "/repl/")
}

// apiHandler wraps the REST mux with the restapi span.
func (r *recorder) apiHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		s := span{Name: "restapi", Req: r.current.Load(), Member: -1, Start: r.now()}
		h.ServeHTTP(w, req)
		s.End = r.now()
		r.add(s)
	})
}

// nodeHandler wraps one shard node with node.<path> spans.
func (r *recorder) nodeHandler(peer int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		path := strings.TrimPrefix(req.URL.Path, wire.Version)
		s := span{Name: "node" + strings.ReplaceAll(path, "/", "."), Member: peer, Start: r.now()}
		if !background(path) {
			s.Req = r.current.Load()
		}
		h.ServeHTTP(w, req)
		s.End = r.now()
		r.add(s)
	})
}

// wireClient is the router's node client: mpserve's default (5 s
// timeout, default transport) with wire.<path> spans that end when the
// response body is closed.
func (r *recorder) wireClient() *http.Client {
	return &http.Client{Timeout: 5 * time.Second, Transport: &wireTransport{rec: r, base: http.DefaultTransport}}
}

type wireTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.rec
	if !r.on.Load() {
		return t.base.RoundTrip(req)
	}
	path := strings.TrimPrefix(req.URL.Path, wire.Version)
	r.mu.Lock()
	peer, ok := r.members[req.URL.Host]
	r.mu.Unlock()
	if !ok {
		peer = -1
	}
	s := span{Name: "wire" + strings.ReplaceAll(path, "/", "."), Member: peer, Start: r.now()}
	if !background(path) {
		s.Req = r.current.Load()
	}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = r.now()
		r.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: r, s: s}
	return resp, nil
}

// spanBody ends its wire span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.rec.now()
		b.rec.add(b.s)
	})
	return err
}

// backend wraps the router as the query engine's backend, recording a
// router.<op> span around every data operation.
func (r *recorder) backend(rt *cluster.Router) queryengine.Backend {
	return tracedBackend{rec: r, rt: rt}
}

type tracedBackend struct {
	rec *recorder
	rt  *cluster.Router
}

func (b tracedBackend) C(name string) queryengine.Collection {
	return tracedColl{rec: b.rec, c: b.rt.C(name)}
}

type tracedColl struct {
	rec *recorder
	c   queryengine.Collection
}

// time records a router.<op> span around fn when tracing is on.
func (t tracedColl) time(op string, fn func()) {
	if !t.rec.on.Load() {
		fn()
		return
	}
	s := span{Name: "router." + op, Req: t.rec.current.Load(), Member: -1, Start: t.rec.now()}
	fn()
	s.End = t.rec.now()
	t.rec.add(s)
}

func (t tracedColl) FindAll(filter document.D, opts *datastore.FindOpts) (docs []document.D, err error) {
	t.time("find", func() { docs, err = t.c.FindAll(filter, opts) })
	return
}

func (t tracedColl) Count(filter document.D) (n int, err error) {
	t.time("count", func() { n, err = t.c.Count(filter) })
	return
}

func (t tracedColl) Distinct(path string, filter document.D) (vals []any, err error) {
	t.time("distinct", func() { vals, err = t.c.Distinct(path, filter) })
	return
}

func (t tracedColl) UpdateOne(filter, update document.D) (res datastore.UpdateResult, err error) {
	t.time("updateOne", func() { res, err = t.c.UpdateOne(filter, update) })
	return
}

func (t tracedColl) UpdateMany(filter, update document.D) (res datastore.UpdateResult, err error) {
	t.time("updateMany", func() { res, err = t.c.UpdateMany(filter, update) })
	return
}

func (t tracedColl) Insert(doc document.D) (id string, err error) {
	t.time("insert", func() { id, err = t.c.Insert(doc) })
	return
}

func (t tracedColl) InsertMany(docs []document.D) (ids []string, err error) {
	t.time("insertMany", func() { ids, err = t.c.InsertMany(docs) })
	return
}

func (t tracedColl) BulkWrite(ops []datastore.BulkOp) (res datastore.BulkResult, err error) {
	t.time("bulkWrite", func() { res, err = t.c.BulkWrite(ops) })
	return
}

func (t tracedColl) Aggregate(pipeline []document.D) (docs []document.D, err error) {
	t.time("aggregate", func() { docs, err = t.c.Aggregate(pipeline) })
	return
}

func (t tracedColl) Explain(filter document.D, opts *datastore.FindOpts) (plan document.D, err error) {
	t.time("explain", func() { plan, err = t.c.Explain(filter, opts) })
	return
}

// Generation is a local counter read, not a data operation: no span.
func (t tracedColl) Generation() uint64 { return t.c.Generation() }

// snapshot returns the recorded spans with ids assigned and parents
// linked.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	linkParents(out)
	return out
}

// linkParents numbers spans and links each to its parent: within one
// request, the span of the nearest outer layer whose interval contains
// it. A node span's parent must also be a wire span to the same peer.
// Background spans stay roots.
func linkParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return layerOf(spans[i].Name) < layerOf(spans[j].Name)
	})
	byReq := map[uint64][]int{}
	for i := range spans {
		spans[i].ID = i + 1
		spans[i].Parent = 0
		if spans[i].Req != 0 {
			byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
		}
	}
	for _, idx := range byReq {
		for _, ci := range idx {
			c := &spans[ci]
			best, bestLayer := -1, -1
			cl := layerOf(c.Name)
			for _, pi := range idx {
				p := spans[pi]
				pl := layerOf(p.Name)
				if pi == ci || pl < 0 || pl >= cl || pl <= bestLayer {
					continue
				}
				if p.Start > c.Start || p.End < c.End {
					continue
				}
				if strings.HasPrefix(c.Name, "node.") && strings.HasPrefix(p.Name, "wire.") && p.Member != c.Member {
					continue
				}
				best, bestLayer = pi, pl
			}
			if best >= 0 {
				c.Parent = spans[best].ID
			}
		}
	}
}

// childrenOf groups linked spans by parent id.
func childrenOf(spans []span) map[int][]span {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, keyed by span id.
func selfTimes(spans []span) map[int]int64 {
	children := childrenOf(spans)
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = x[0], x[1], true
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
