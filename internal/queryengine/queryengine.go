// Package queryengine implements the abstraction layer the paper places
// between every client and the raw datastore (§III-B4): it installs
// convenient aliases for deeply nested fields, maps logical collection
// names to physical ones, sanitizes queries so clients "cannot access the
// database directly" (§IV-D1), and rate-limits per-user query traffic to
// prevent denial-of-service or data-scraping.
//
// Because all reads and writes flow through this layer, the store behind
// it could be swapped out without touching clients — the "defense against
// lock-in" the paper describes.
package queryengine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/rcache"
)

// Backend is the storage surface the engine fronts. A local
// *datastore.Store is the standalone case; internal/cluster's Router
// satisfies the same contract over networked shard nodes, so the whole
// dissemination layer (aliases, sanitization, rate limits) is reusable
// in front of either — the paper's "defense against lock-in" extended to
// the deployment topology.
type Backend interface {
	C(name string) Collection
}

// Collection is the per-collection operation set the engine needs from a
// backend. *datastore.Collection implements it directly.
type Collection interface {
	FindAll(filter document.D, opts *datastore.FindOpts) ([]document.D, error)
	Count(filter document.D) (int, error)
	Distinct(path string, filter document.D) ([]any, error)
	UpdateOne(filter, update document.D) (datastore.UpdateResult, error)
	UpdateMany(filter, update document.D) (datastore.UpdateResult, error)
	Insert(doc document.D) (string, error)
	// InsertMany inserts a batch under a single lock acquisition (one
	// group-commit fsync on durable stores); routed backends split it
	// into per-shard sub-batches.
	InsertMany(docs []document.D) ([]string, error)
	// BulkWrite applies a mixed insert/update/delete batch. Per-op
	// failures land in the per-op results; the error return is for
	// batch-level failures.
	BulkWrite(ops []datastore.BulkOp) (datastore.BulkResult, error)
	Aggregate(pipeline []document.D) ([]document.D, error)
	// Explain returns the query planner's decision for the filter/opts
	// pair without executing the query (chosen index, key bounds,
	// residual filter, sort satisfaction). Routed backends scatter it so
	// the response reports every shard's plan.
	Explain(filter document.D, opts *datastore.FindOpts) (document.D, error)
	// Generation reports the collection's write generation (see
	// datastore.Collection.Generation): it changes after every
	// acknowledged write, and the read-path result cache and the REST
	// layer's ETags key validity on it.
	Generation() uint64
}

// storeBackend adapts *datastore.Store to Backend (Store.C returns the
// concrete *datastore.Collection type).
type storeBackend struct{ s *datastore.Store }

func (b storeBackend) C(name string) Collection { return b.s.C(name) }

// Engine is a sanitizing, aliasing facade over a storage backend.
type Engine struct {
	store Backend

	// Live observability (nil when not wired). Because every client read
	// and write flows through the Engine, these histograms are the live
	// counterpart of Fig. 5: per-op latency plus documents-returned
	// accounting.
	obsReg atomic.Pointer[obs.Registry]
	obsTr  atomic.Pointer[obs.Tracer]

	// cache, when set, serves Find/Count/Distinct results validated by
	// the backend collection's write generation (nil = every read
	// recomputes). A cached result is shared by every caller that hits
	// it, which the read contract (see Find) makes safe.
	cache atomic.Pointer[rcache.Cache]

	mu sync.RWMutex
	// aliases maps collection -> alias -> physical dotted path.
	aliases map[string]map[string]string
	// collAliases maps logical collection name -> physical name.
	collAliases map[string]string
	// deniedOps are operator names rejected during sanitization.
	deniedOps map[string]bool
	limiter   *RateLimiter
}

// Option configures an Engine.
type Option func(*Engine)

// WithRateLimit installs a per-user token bucket allowing n queries per
// interval.
func WithRateLimit(n int, interval time.Duration) Option {
	return func(e *Engine) { e.limiter = NewRateLimiter(n, interval) }
}

// WithDeniedOperator rejects queries using the given operator (e.g. a
// deployment may deny "$regex" to prevent expensive scans).
func WithDeniedOperator(op string) Option {
	return func(e *Engine) { e.deniedOps[op] = true }
}

// WithCache installs a read-path result cache (see SetCache).
func WithCache(c *rcache.Cache) Option {
	return func(e *Engine) { e.cache.Store(c) }
}

// New wraps a local store.
func New(store *datastore.Store, opts ...Option) *Engine {
	return NewWithBackend(storeBackend{store}, opts...)
}

// NewWithBackend wraps any storage backend — in particular a cluster
// router, putting the full sanitizing layer in front of networked shards.
func NewWithBackend(b Backend, opts ...Option) *Engine {
	e := &Engine{
		store:       b,
		aliases:     make(map[string]map[string]string),
		collAliases: make(map[string]string),
		deniedOps:   map[string]bool{"$where": true}, // never allow code injection
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Observe wires the engine into a metrics registry and slow-query tracer
// (either may be nil). Safe to call while queries are flowing.
func (e *Engine) Observe(reg *obs.Registry, tr *obs.Tracer) {
	e.obsReg.Store(reg)
	e.obsTr.Store(tr)
}

// SetCache installs (nil removes) the read-path result cache. Safe to
// call while queries are flowing.
func (e *Engine) SetCache(c *rcache.Cache) { e.cache.Store(c) }

// Generation reports the backend write generation of a logical
// collection (collection aliases resolved). The REST layer derives
// entity tags from it: any acknowledged write to the collection changes
// the value, so If-None-Match revalidation stays exact.
func (e *Engine) Generation(collection string) uint64 {
	return e.store.C(e.physical(collection)).Generation()
}

// cacheArg renders the canonical cache argument for a read: compact JSON
// with sorted keys at every nesting level (encoding/json sorts map
// keys), so semantically identical filters from different clients share
// an entry. The false return (marshal failure — a filter holding a
// non-JSON value) bypasses the cache rather than failing the read.
func cacheArg(filter document.D, opts *datastore.FindOpts, field string) (string, bool) {
	spec := struct {
		F  map[string]any `json:"f,omitempty"`
		P  map[string]any `json:"p,omitempty"`
		S  []string       `json:"s,omitempty"`
		K  int            `json:"k,omitempty"`
		L  int            `json:"l,omitempty"`
		D  string         `json:"d,omitempty"`
		MS int            `json:"ms,omitempty"` // staleness budget: follower-served results must not satisfy exact reads
	}{F: filter, D: field}
	if opts != nil {
		spec.P, spec.S, spec.K, spec.L = opts.Projection, opts.Sort, opts.Skip, opts.Limit
		spec.MS = opts.MaxStaleness
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return "", false
	}
	return string(b), true
}

// observeOp records one engine operation: a per-op latency histogram and
// count, a documents-returned counter, error/rate-limit counters, and —
// when the op crosses the tracer threshold — a slow-query log entry with
// the collection and filter.
func (e *Engine) observeOp(op, collection string, filter document.D, start time.Time, returned int, err error) {
	reg := e.obsReg.Load()
	tr := e.obsTr.Load()
	if reg == nil && tr == nil {
		return
	}
	dur := time.Since(start)
	if reg != nil {
		reg.Counter("query." + op + ".count").Inc()
		reg.LatencyHistogram("query." + op + "_ms").ObserveDuration(dur)
		if returned > 0 {
			reg.Counter("query.docs_returned").Add(uint64(returned))
		}
		if err != nil {
			if errors.Is(err, ErrRateLimited) {
				reg.Counter("query.rate_limited").Inc()
			} else {
				reg.Counter("query.errors").Inc()
			}
		}
	}
	tr.ObserveFunc("query."+op, dur, func() string {
		detail := "collection=" + collection
		if filter != nil {
			if b, jerr := filter.ToJSON(); jerr == nil {
				f := string(b)
				if len(f) > 200 {
					f = f[:200] + "..."
				}
				detail += " filter=" + f
			}
		}
		return fmt.Sprintf("%s returned=%d", detail, returned)
	})
}

// AddAlias installs alias -> path for one collection, so clients can write
// {energy: ...} instead of {"output.final_energy": ...}. Installing in a
// "single central place" is the point of the layer.
func (e *Engine) AddAlias(collection, alias, path string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.aliases[collection]
	if m == nil {
		m = make(map[string]string)
		e.aliases[collection] = m
	}
	m[alias] = path
}

// AliasCollection maps a logical collection name to a physical one,
// letting operators rename collections without breaking clients.
func (e *Engine) AliasCollection(logical, physical string) {
	e.mu.Lock()
	e.collAliases[logical] = physical
	e.mu.Unlock()
}

// Aliases reports the installed field aliases for a collection, sorted.
func (e *Engine) Aliases(collection string) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for a := range e.aliases[collection] {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (e *Engine) physical(collection string) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if p, ok := e.collAliases[collection]; ok {
		return p
	}
	return collection
}

// translate rewrites aliased field names in a filter/update/projection
// document and rejects denied operators. Keys are rewritten at any
// nesting level inside logical operators; values below a field key are
// left alone except for operator screening.
func (e *Engine) translate(collection string, d document.D) (document.D, error) {
	if d == nil {
		return nil, nil
	}
	e.mu.RLock()
	aliasMap := e.aliases[collection]
	e.mu.RUnlock()
	out, err := e.translateMap(aliasMap, map[string]any(d), true)
	if err != nil {
		return nil, err
	}
	return document.D(out), nil
}

func (e *Engine) translateMap(aliasMap map[string]string, m map[string]any, fieldPosition bool) (map[string]any, error) {
	out := make(map[string]any, len(m))
	for k, v := range m {
		if strings.HasPrefix(k, "$") {
			if e.deniedOps[k] {
				return nil, fmt.Errorf("queryengine: operator %s is not permitted", k)
			}
			switch k {
			case "$and", "$or", "$nor":
				arr, ok := v.([]any)
				if !ok {
					out[k] = v
					continue
				}
				newArr := make([]any, len(arr))
				for i, el := range arr {
					if sub, ok := el.(map[string]any); ok {
						t, err := e.translateMap(aliasMap, sub, true)
						if err != nil {
							return nil, err
						}
						newArr[i] = t
					} else {
						newArr[i] = el
					}
				}
				out[k] = newArr
			default:
				// Operator argument: screen nested operators but keep
				// values (and do not alias inside values).
				if sub, ok := v.(map[string]any); ok {
					t, err := e.translateMap(aliasMap, sub, false)
					if err != nil {
						return nil, err
					}
					out[k] = t
				} else {
					out[k] = v
				}
			}
			continue
		}
		key := k
		if fieldPosition && aliasMap != nil {
			if phys, ok := aliasMap[k]; ok {
				key = phys
			} else if head, rest, found := strings.Cut(k, "."); found {
				if phys, ok := aliasMap[head]; ok {
					key = phys + "." + rest
				}
			}
		}
		// Field values may contain operator documents ({$gte: ...}) or, in
		// updates, field->value maps ({$set: {alias: v}}).
		if sub, ok := v.(map[string]any); ok {
			// Update-operator bodies are field maps: keys there are field
			// names, so keep fieldPosition for them when the parent key is
			// an update operator. We detect that in translate via
			// TranslateUpdate instead; here treat as operator body.
			t, err := e.translateMap(aliasMap, sub, false)
			if err != nil {
				return nil, err
			}
			out[key] = t
		} else {
			out[key] = v
		}
	}
	return out, nil
}

// translateUpdate rewrites aliases inside update-operator bodies
// ({$set: {energy: 1}} -> {$set: {"output.final_energy": 1}}).
func (e *Engine) translateUpdate(collection string, u document.D) (document.D, error) {
	if u == nil {
		return nil, nil
	}
	e.mu.RLock()
	aliasMap := e.aliases[collection]
	e.mu.RUnlock()
	out := make(document.D, len(u))
	for op, body := range u {
		if !strings.HasPrefix(op, "$") {
			// Replacement document: alias its top-level keys.
			key := op
			if aliasMap != nil {
				if phys, ok := aliasMap[op]; ok {
					key = phys
				}
			}
			out[key] = body
			continue
		}
		if e.deniedOps[op] {
			return nil, fmt.Errorf("queryengine: operator %s is not permitted", op)
		}
		m, ok := body.(map[string]any)
		if !ok {
			if d, isD := body.(document.D); isD {
				m = map[string]any(d)
				ok = true
			}
		}
		if !ok {
			out[op] = body
			continue
		}
		newBody := make(map[string]any, len(m))
		for field, v := range m {
			key := field
			if aliasMap != nil {
				if phys, okA := aliasMap[field]; okA {
					key = phys
				} else if head, rest, found := strings.Cut(field, "."); found {
					if phys, okA := aliasMap[head]; okA {
						key = phys + "." + rest
					}
				}
			}
			newBody[key] = v
		}
		out[op] = newBody
	}
	return out, nil
}

// ErrRateLimited is returned when a user exceeds their query budget.
var ErrRateLimited = fmt.Errorf("queryengine: rate limit exceeded")

// ErrUnavailable marks backend errors meaning the storage tier cannot
// currently serve the request (e.g. a shard with no healthy members).
// Backends wrap it so the API layer can answer 503 — a retryable signal
// — instead of blaming the caller with a 400.
var ErrUnavailable = fmt.Errorf("queryengine: backend unavailable")

// checkRate charges one query to user, if limiting is enabled.
func (e *Engine) checkRate(user string) error {
	if e.limiter == nil || user == "" {
		return nil
	}
	if !e.limiter.Allow(user) {
		return ErrRateLimited
	}
	return nil
}

// Find runs a sanitized, alias-translated query for a user.
//
// Read contract (Find, FindOne, Distinct and Aggregate alike): results
// are shared, read-only snapshots — the backend's stored or cached
// documents, possibly handed to other callers too. Neither the returned
// slice nor the documents in it may be mutated; Copy() a document
// first. A result held across a write keeps its pre-write values.
func (e *Engine) Find(user, collection string, filter document.D, opts *datastore.FindOpts) (docs []document.D, err error) {
	start := time.Now()
	defer func() { e.observeOp("find", collection, filter, start, len(docs), err) }()
	if err := e.checkRate(user); err != nil {
		return nil, err
	}
	f, err := e.translate(collection, document.NormalizeDoc(filter))
	if err != nil {
		return nil, err
	}
	var o *datastore.FindOpts
	if opts != nil {
		copyOpts := *opts
		p, err := e.translate(collection, document.NormalizeDoc(opts.Projection))
		if err != nil {
			return nil, err
		}
		copyOpts.Projection = p
		copyOpts.Sort = e.translateSort(collection, opts.Sort)
		o = &copyOpts
	}
	coll := e.store.C(e.physical(collection))
	// $explain in the filter flips the query into plan-only mode: the
	// planner's decision comes back as the single result document and
	// nothing is executed (or cached — plans describe live index state).
	if ev, hasExplain := f["$explain"]; hasExplain {
		delete(f, "$explain")
		if explainTruthy(ev) {
			plan, perr := coll.Explain(f, o)
			if perr != nil {
				return nil, perr
			}
			return []document.D{plan}, nil
		}
	}
	rc := e.cache.Load()
	if rc == nil {
		return coll.FindAll(f, o)
	}
	arg, ok := cacheArg(f, o, "")
	if !ok {
		return coll.FindAll(f, o)
	}
	// Load the generation before reading: a write landing after this
	// point produces a new generation, so the entry stored under gen can
	// never serve a reader that starts after that write acknowledges.
	gen := coll.Generation()
	v, _, err := rc.GetOrCompute(rcache.KeyFor(e.physical(collection), "find", arg), gen, func() (any, error) {
		d, cerr := coll.FindAll(f, o)
		return d, cerr
	})
	if err != nil {
		return nil, err
	}
	return v.([]document.D), nil
}

// explainTruthy interprets the $explain flag value: false, nil and
// numeric zero are off, everything else is on.
func explainTruthy(v any) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	default:
		return true
	}
}

// Explain runs the sanitizing/aliasing pipeline exactly as Find would,
// then asks the backend for the planner's decision instead of results.
func (e *Engine) Explain(user, collection string, filter document.D, opts *datastore.FindOpts) (plan document.D, err error) {
	start := time.Now()
	defer func() { e.observeOp("explain", collection, filter, start, 0, err) }()
	if err := e.checkRate(user); err != nil {
		return nil, err
	}
	f, err := e.translate(collection, document.NormalizeDoc(filter))
	if err != nil {
		return nil, err
	}
	delete(f, "$explain")
	var o *datastore.FindOpts
	if opts != nil {
		copyOpts := *opts
		p, err := e.translate(collection, document.NormalizeDoc(opts.Projection))
		if err != nil {
			return nil, err
		}
		copyOpts.Projection = p
		copyOpts.Sort = e.translateSort(collection, opts.Sort)
		o = &copyOpts
	}
	return e.store.C(e.physical(collection)).Explain(f, o)
}

func (e *Engine) translateSort(collection string, sortSpec []string) []string {
	e.mu.RLock()
	aliasMap := e.aliases[collection]
	e.mu.RUnlock()
	if aliasMap == nil {
		return sortSpec
	}
	out := make([]string, len(sortSpec))
	for i, s := range sortSpec {
		neg := strings.HasPrefix(s, "-")
		name := strings.TrimPrefix(s, "-")
		if phys, ok := aliasMap[name]; ok {
			name = phys
		}
		if neg {
			name = "-" + name
		}
		out[i] = name
	}
	return out
}

// FindOne returns the first match or datastore.ErrNotFound.
func (e *Engine) FindOne(user, collection string, filter document.D, opts *datastore.FindOpts) (document.D, error) {
	o := datastore.FindOpts{Limit: 1}
	if opts != nil {
		o = *opts
		o.Limit = 1
	}
	docs, err := e.Find(user, collection, filter, &o)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, datastore.ErrNotFound
	}
	return docs[0], nil
}

// Count counts matching documents.
func (e *Engine) Count(user, collection string, filter document.D) (n int, err error) {
	start := time.Now()
	defer func() { e.observeOp("count", collection, filter, start, n, err) }()
	if err := e.checkRate(user); err != nil {
		return 0, err
	}
	f, err := e.translate(collection, document.NormalizeDoc(filter))
	if err != nil {
		return 0, err
	}
	coll := e.store.C(e.physical(collection))
	rc := e.cache.Load()
	if rc == nil {
		return coll.Count(f)
	}
	arg, ok := cacheArg(f, nil, "")
	if !ok {
		return coll.Count(f)
	}
	gen := coll.Generation()
	v, _, err := rc.GetOrCompute(rcache.KeyFor(e.physical(collection), "count", arg), gen, func() (any, error) {
		cn, cerr := coll.Count(f)
		return cn, cerr
	})
	if err != nil {
		return 0, err
	}
	return v.(int), nil
}

// Distinct lists distinct values of a (possibly aliased) field.
func (e *Engine) Distinct(user, collection, field string, filter document.D) (vals []any, err error) {
	start := time.Now()
	defer func() { e.observeOp("distinct", collection, filter, start, len(vals), err) }()
	if err := e.checkRate(user); err != nil {
		return nil, err
	}
	f, err := e.translate(collection, document.NormalizeDoc(filter))
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	if m := e.aliases[collection]; m != nil {
		if phys, ok := m[field]; ok {
			field = phys
		}
	}
	e.mu.RUnlock()
	coll := e.store.C(e.physical(collection))
	rc := e.cache.Load()
	if rc == nil {
		return coll.Distinct(field, f)
	}
	arg, ok := cacheArg(f, nil, field)
	if !ok {
		return coll.Distinct(field, f)
	}
	gen := coll.Generation()
	v, _, err := rc.GetOrCompute(rcache.KeyFor(e.physical(collection), "distinct", arg), gen, func() (any, error) {
		dv, cerr := coll.Distinct(field, f)
		return dv, cerr
	})
	if err != nil {
		return nil, err
	}
	return v.([]any), nil
}

// Update applies a sanitized update; many selects UpdateMany.
func (e *Engine) Update(user, collection string, filter, update document.D, many bool) (res datastore.UpdateResult, err error) {
	start := time.Now()
	defer func() { e.observeOp("update", collection, filter, start, res.Modified, err) }()
	if err := e.checkRate(user); err != nil {
		return datastore.UpdateResult{}, err
	}
	f, err := e.translate(collection, document.NormalizeDoc(filter))
	if err != nil {
		return datastore.UpdateResult{}, err
	}
	u, err := e.translateUpdate(collection, document.NormalizeDoc(update))
	if err != nil {
		return datastore.UpdateResult{}, err
	}
	c := e.store.C(e.physical(collection))
	if many {
		return c.UpdateMany(f, u)
	}
	return c.UpdateOne(f, u)
}

// Insert stores a document (top-level alias keys are translated).
func (e *Engine) Insert(user, collection string, doc document.D) (id string, err error) {
	start := time.Now()
	defer func() { e.observeOp("insert", collection, nil, start, 0, err) }()
	if err := e.checkRate(user); err != nil {
		return "", err
	}
	d, err := e.translateInsertDoc(collection, doc)
	if err != nil {
		return "", err
	}
	return e.store.C(e.physical(collection)).Insert(d)
}

// translateInsertDoc normalizes an inbound document and rewrites
// top-level alias keys to their physical dotted paths.
func (e *Engine) translateInsertDoc(collection string, doc document.D) (document.D, error) {
	d := document.NormalizeDoc(doc)
	e.mu.RLock()
	aliasMap := e.aliases[collection]
	e.mu.RUnlock()
	if aliasMap != nil {
		for alias, phys := range aliasMap {
			if v, ok := d[alias]; ok {
				delete(d, alias)
				if err := d.Set(phys, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return d, nil
}

// InsertMany stores a batch of documents through the backend's
// single-lock batch path (one group-commit fsync on durable stores;
// per-shard sub-batches when routed). Alias keys are translated per
// document. The batch counts as one operation against the rate limit.
func (e *Engine) InsertMany(user, collection string, docs []document.D) (ids []string, err error) {
	start := time.Now()
	defer func() { e.observeOp("insertMany", collection, nil, start, len(ids), err) }()
	if err := e.checkRate(user); err != nil {
		return nil, err
	}
	prepared := make([]document.D, len(docs))
	for i, doc := range docs {
		d, terr := e.translateInsertDoc(collection, doc)
		if terr != nil {
			return nil, terr
		}
		prepared[i] = d
	}
	ids, err = e.store.C(e.physical(collection)).InsertMany(prepared)
	return ids, err
}

// BulkWrite applies a mixed insert/update/delete batch. Insert docs get
// top-level alias translation, update/delete filters and update bodies
// go through the same sanitizing translation as Query/Update — a denied
// operator fails that op (reported per-op), not the batch.
func (e *Engine) BulkWrite(user, collection string, ops []datastore.BulkOp) (res datastore.BulkResult, err error) {
	start := time.Now()
	mutated := 0
	defer func() { e.observeOp("bulkWrite", collection, nil, start, mutated, err) }()
	if err := e.checkRate(user); err != nil {
		return datastore.BulkResult{}, err
	}
	prepared := make([]datastore.BulkOp, len(ops))
	// preErr holds per-op translation failures so the backend still runs
	// the ops that translated cleanly (continue-on-error semantics).
	preErr := make([]string, len(ops))
	for i, op := range ops {
		p := datastore.BulkOp{Op: op.Op}
		switch op.Op {
		case datastore.BulkInsert:
			d, terr := e.translateInsertDoc(collection, op.Doc)
			if terr != nil {
				preErr[i] = terr.Error()
				break
			}
			p.Doc = d
		case datastore.BulkUpdateOne, datastore.BulkUpdateMany:
			f, terr := e.translate(collection, document.NormalizeDoc(op.Filter))
			if terr == nil {
				p.Filter = f
				p.Update, terr = e.translateUpdate(collection, document.NormalizeDoc(op.Update))
			}
			if terr != nil {
				preErr[i] = terr.Error()
			}
		case datastore.BulkDelete:
			f, terr := e.translate(collection, document.NormalizeDoc(op.Filter))
			if terr != nil {
				preErr[i] = terr.Error()
				break
			}
			p.Filter = f
		default:
			preErr[i] = fmt.Sprintf("unknown bulk op %q", op.Op)
		}
		prepared[i] = p
	}
	// Send only the clean ops, then fold the per-op results back into
	// input order alongside the translation failures.
	send := make([]datastore.BulkOp, 0, len(ops))
	sendIdx := make([]int, 0, len(ops))
	for i := range prepared {
		if preErr[i] == "" {
			send = append(send, prepared[i])
			sendIdx = append(sendIdx, i)
		}
	}
	res = datastore.BulkResult{PerOp: make([]datastore.BulkOpResult, len(ops))}
	for i, msg := range preErr {
		if msg != "" {
			res.PerOp[i].Error = msg
		}
	}
	if len(send) > 0 {
		sub, berr := e.store.C(e.physical(collection)).BulkWrite(send)
		if berr != nil {
			err = berr
			return res, err
		}
		res.Inserted, res.Matched, res.Modified, res.Removed = sub.Inserted, sub.Matched, sub.Modified, sub.Removed
		for si, oi := range sendIdx {
			if si < len(sub.PerOp) {
				res.PerOp[oi] = sub.PerOp[si]
			}
		}
	}
	mutated = res.Inserted + res.Modified + res.Removed
	return res, nil
}

// RateLimiter is a fixed-window per-user counter: up to n operations per
// interval, resetting at window boundaries.
type RateLimiter struct {
	mu       sync.Mutex
	n        int
	interval time.Duration
	windows  map[string]*window
	now      func() time.Time
}

type window struct {
	start time.Time
	count int
}

// NewRateLimiter allows n operations per interval per user.
func NewRateLimiter(n int, interval time.Duration) *RateLimiter {
	return &RateLimiter{n: n, interval: interval, windows: make(map[string]*window), now: time.Now}
}

// SetClock overrides the limiter's time source (tests).
func (r *RateLimiter) SetClock(now func() time.Time) {
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Allow charges one operation to user, reporting whether it is within
// budget.
func (r *RateLimiter) Allow(user string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	w, ok := r.windows[user]
	if !ok || now.Sub(w.start) >= r.interval {
		w = &window{start: now}
		r.windows[user] = w
	}
	if w.count >= r.n {
		return false
	}
	w.count++
	return true
}
