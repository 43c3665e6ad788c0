package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matproj/internal/cluster/replog"
	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
	"matproj/internal/shard"
	"matproj/internal/vclock"
)

// TransportFaults injects failures into the router's node calls. The
// interface is consumer-defined (same convention as datastore's
// JournalFaults) so *faults.Injector satisfies it structurally without
// this package importing faults.
type TransportFaults interface {
	// DropCall reports whether the next call should fail before reaching
	// the node (connection refused / lost packet).
	DropCall() bool
	// CallError reports whether the next call should come back as a
	// remote server error.
	CallError() bool
	// CallDelay returns how long to stall the next call (0 for none).
	CallDelay() time.Duration
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Groups lists member base URLs per shard group; the first member of
	// each group starts as primary, the rest are replicas.
	Groups [][]string
	// ShardKey is the dotted field hashed for placement; empty means
	// "_id".
	ShardKey string
	// Registry receives router metrics (nil = no-op).
	Registry *obs.Registry
	// Cache, when non-nil, serves repeated per-shard reads without a
	// network round trip. Entries are validated by per-(collection,
	// shard) write generations the router bumps on every routed write,
	// so a write to one shard invalidates only that shard's entries.
	Cache *rcache.Cache
	// Client is the HTTP client for node calls (nil = a client with a
	// 5-second timeout).
	Client *http.Client
	// HealthInterval starts a background health-check loop when > 0.
	// Stop it with Close. Tests usually leave it 0 and drive CheckNow.
	HealthInterval time.Duration
	// Clock paces the health loop and fault-injected call delays
	// (nil = the wall clock). Tests inject a vclock.Fake to drive both
	// deterministically.
	Clock vclock.Clock
	// Tracer receives slow-op observations (partial replication detail
	// lands here). Nil = no-op.
	Tracer *obs.Tracer
	// ReadRetries is how many extra rounds a read attempts after
	// exhausting a group's healthy members to a transient transport
	// error; each round re-probes the group first so dropped-packet
	// blips self-heal without waiting for the health loop. Negative
	// disables retries; 0 selects the default (2).
	ReadRetries int
	// RetryBackoff is the base delay between read retry rounds (doubled
	// per round, jittered; 0 selects 10ms). Sleeps go through Clock.
	RetryBackoff time.Duration
	// Seed drives the retry jitter (0 selects 1). Deterministic given
	// the same seed and schedule.
	Seed int64
	// CatchUpBatch caps log entries per catch-up pull round (0 selects
	// replog.DefaultBatch).
	CatchUpBatch int
}

// defaultReadRetries and defaultRetryBackoff pace the read retry path.
const (
	defaultReadRetries  = 2
	defaultRetryBackoff = 10 * time.Millisecond
)

// member is one node endpoint as the router sees it.
type member struct {
	url     string
	healthy bool
	// applied is the member's last known replication generation, fed by
	// heartbeat piggyback and write acks. Monotonic (CAS-max): acks can
	// race, and a freshly restarted node re-reports via its probe.
	applied atomic.Uint64
}

// noteGen advances the member's known applied generation (never
// backwards — concurrent acks land out of order).
func (m *member) noteGen(gen uint64) {
	for {
		cur := m.applied.Load()
		if gen <= cur || m.applied.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// rgroup is one shard group: an ordered member list whose head is the
// current primary. Promotion rotates a healthy member to the head.
type rgroup struct {
	mu      sync.RWMutex
	members []*member
}

// Router owns the shard map and fronts the node fleet. It satisfies
// queryengine.Backend, so the full dissemination layer (aliases,
// sanitization, rate limits, REST API) runs unchanged on top of a
// networked cluster.
type Router struct {
	shardKey string
	groups   []*rgroup
	client   *http.Client
	reg      *obs.Registry
	tracer   *obs.Tracer
	clock    vclock.Clock
	rc       *rcache.Cache
	gens     shardGens

	// repl drives log catch-up for re-admitted members. It talks to
	// nodes with the plain HTTP client, not r.call: catch-up is control
	// plane, so injected transport faults (and their counters) stay a
	// request-plane concern.
	repl *replog.Client

	retries int
	backoff time.Duration

	// rng jitters retry backoff; seeded for determinism, mutex-guarded
	// (rand.Rand is not concurrency-safe).
	rngMu sync.Mutex
	rng   *rand.Rand

	// rr rotates bounded-staleness reads across eligible followers.
	rr atomic.Uint64

	faultsMu sync.RWMutex
	faults   TransportFaults

	stopOnce sync.Once
	stopCh   chan struct{}
}

// NewRouter builds a router over the given shard groups.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Groups) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard group")
	}
	r := &Router{
		shardKey: opts.ShardKey,
		client:   opts.Client,
		reg:      opts.Registry,
		tracer:   opts.Tracer,
		clock:    opts.Clock,
		rc:       opts.Cache,
		gens:     shardGens{m: make(map[string][]*atomic.Uint64), n: len(opts.Groups)},
		retries:  opts.ReadRetries,
		backoff:  opts.RetryBackoff,
		stopCh:   make(chan struct{}),
	}
	if r.shardKey == "" {
		r.shardKey = "_id"
	}
	if r.clock == nil {
		r.clock = vclock.Wall
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: 5 * time.Second}
	}
	if r.retries == 0 {
		r.retries = defaultReadRetries
	} else if r.retries < 0 {
		r.retries = 0
	}
	if r.backoff <= 0 {
		r.backoff = defaultRetryBackoff
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	r.rng = rand.New(rand.NewSource(seed))
	r.repl = &replog.Client{HTTP: r.client, Batch: opts.CatchUpBatch}
	for gi, urls := range opts.Groups {
		if len(urls) == 0 {
			return nil, fmt.Errorf("cluster: shard group %d has no members", gi)
		}
		g := &rgroup{}
		for _, u := range urls {
			g.members = append(g.members, &member{url: u, healthy: true})
		}
		r.groups = append(r.groups, g)
	}
	if opts.HealthInterval > 0 {
		go r.healthLoop(opts.HealthInterval)
	}
	return r, nil
}

// Close stops the background health loop (if any).
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stopCh) })
}

// Shards reports the shard group count.
func (r *Router) Shards() int { return len(r.groups) }

// InjectFaults installs a transport fault injector (nil clears it).
func (r *Router) InjectFaults(f TransportFaults) {
	r.faultsMu.Lock()
	r.faults = f
	r.faultsMu.Unlock()
}

func (r *Router) transportFaults() TransportFaults {
	r.faultsMu.RLock()
	defer r.faultsMu.RUnlock()
	return r.faults
}

// call POSTs one encoded wire request to a member and decodes the
// response into out. Callers encode each request once (encodeRequest) and
// hand the same bytes to every member they try. Transport failures and
// injected faults return an error; the caller decides whether to mark
// the member unhealthy.
func (r *Router) call(m *member, path string, body []byte, out any) error {
	if f := r.transportFaults(); f != nil {
		if d := f.CallDelay(); d > 0 {
			r.clock.Sleep(d)
		}
		if f.DropCall() {
			r.reg.Counter("cluster_calls_dropped_total").Inc()
			return fmt.Errorf("cluster: injected drop calling %s%s", m.url, path)
		}
		if f.CallError() {
			r.reg.Counter("cluster_calls_errored_total").Inc()
			return fmt.Errorf("cluster: injected remote error from %s%s", m.url, path)
		}
	}
	resp, err := r.client.Post(m.url+wire.Version+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: call %s%s: %w", m.url, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: read %s%s: %w", m.url, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e wire.ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			if resp.StatusCode == http.StatusNotFound {
				return datastore.ErrNotFound
			}
			// The node answered: a remote op error, not a dead member.
			return remoteError{status: resp.StatusCode, msg: e.Error}
		}
		return fmt.Errorf("cluster: %s%s: status %d", m.url, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := wire.DecodeJSONBytes(raw, out); err != nil {
		return fmt.Errorf("cluster: decode %s%s: %w", m.url, path, err)
	}
	return nil
}

// encodeRequest encodes one wire request for call.
func encodeRequest(path string, req wire.Request) ([]byte, error) {
	body, err := req.AppendJSON(nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode %s: %w", path, err)
	}
	return body, nil
}

// remoteError is an application-level error relayed from a node. The
// member is alive (it answered), so remote errors never trigger
// failover.
type remoteError struct {
	status int
	msg    string
}

func (e remoteError) Error() string { return e.msg }

// isMemberFailure reports whether an error means the member itself is
// unreachable or broken (vs. a well-formed remote op error).
func isMemberFailure(err error) bool {
	if err == nil || err == datastore.ErrNotFound {
		return false
	}
	var re remoteError
	return !asRemote(err, &re)
}

func asRemote(err error, target *remoteError) bool {
	for err != nil {
		if re, ok := err.(remoteError); ok {
			*target = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// healthyMembers snapshots a group's healthy members, primary first.
func (g *rgroup) healthyMembers() []*member {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*member, 0, len(g.members))
	for _, m := range g.members {
		if m.healthy {
			out = append(out, m)
		}
	}
	return out
}

// markUnhealthy flags a member down and, when it was the primary,
// promotes the first healthy replica. Returns whether a promotion
// happened.
func (r *Router) markUnhealthy(gi int, m *member) bool {
	g := r.groups[gi]
	g.mu.Lock()
	defer g.mu.Unlock()
	if m.healthy {
		m.healthy = false
		r.reg.Counter("cluster_member_down_total").Inc()
	}
	return r.promoteLocked(g)
}

// promoteLocked rotates the first healthy member to the head of the
// group when the current head is down. Caller holds g.mu.
func (r *Router) promoteLocked(g *rgroup) bool {
	if len(g.members) == 0 || g.members[0].healthy {
		return false
	}
	for i, m := range g.members {
		if m.healthy {
			// Keep relative order of the rest: the old primary drops to
			// the tail so a recovered node rejoins as a replica.
			promoted := g.members[i]
			rest := append([]*member{}, g.members[:i]...)
			rest = append(rest, g.members[i+1:]...)
			g.members = append([]*member{promoted}, rest...)
			r.reg.Counter("cluster_failover_total").Inc()
			return true
		}
	}
	return false
}

// readOnGroup runs one read call against a group, failing over through
// its healthy members and retrying transient transport exhaustion with
// jittered backoff. Primary-only routing (no staleness bound).
func (r *Router) readOnGroup(gi int, path string, body []byte, out any) error {
	return r.readOnGroupStale(gi, path, body, out, 0)
}

// readOnGroupStale is readOnGroup with an optional staleness bound:
// maxStale > 0 permits the read to be served by a healthy follower
// whose known applied generation lags the group's known head by at most
// maxStale generations (rotating across eligible followers, primary as
// fallback). Reads are idempotent, so after exhausting a group's
// healthy members to transport failures the router sleeps a jittered,
// doubling backoff, re-probes the group (transient blips self-heal
// without waiting for the health loop), and tries again — up to
// ReadRetries extra rounds. Remote op errors never retry.
func (r *Router) readOnGroupStale(gi int, path string, body []byte, out any, maxStale int) error {
	var lastErr error
	for round := 0; ; round++ {
		err := r.readRound(gi, path, body, out, maxStale)
		if err == nil || !errors.Is(err, queryengine.ErrUnavailable) {
			return err
		}
		lastErr = err
		if round >= r.retries {
			break
		}
		r.reg.Counter("cluster.read_retries_total").Inc()
		r.clock.Sleep(r.jitter(r.backoff << round))
		r.checkGroupNow(gi)
	}
	return lastErr
}

// jitter returns a duration in [d/2, d] (seeded rng, mutex-guarded).
func (r *Router) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	half := int64(d / 2)
	return time.Duration(half + r.rng.Int63n(half+1))
}

// readRound makes one pass over a group's candidate members.
func (r *Router) readRound(gi int, path string, body []byte, out any, maxStale int) error {
	g := r.groups[gi]
	g.mu.RLock()
	attempts := len(g.members) + 1
	g.mu.RUnlock()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		candidates := r.readCandidates(gi, maxStale)
		if len(candidates) == 0 {
			break
		}
		m := candidates[0]
		if maxStale > 0 && m != r.primaryMember(gi) {
			r.reg.Counter("cluster.follower_reads_total").Inc()
		}
		start := time.Now()
		err := r.call(m, path, body, out)
		r.reg.LatencyHistogram(fmt.Sprintf("cluster_shard%d_ms", gi)).ObserveDuration(time.Since(start))
		if err == nil {
			return nil
		}
		if !isMemberFailure(err) {
			return err
		}
		lastErr = err
		r.markUnhealthy(gi, m)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: shard %d has no healthy members", gi)
	}
	return fmt.Errorf("%w: shard %d: %v", queryengine.ErrUnavailable, gi, lastErr)
}

// readCandidates orders a group's healthy members for one read attempt.
// With no staleness budget that is simply primary-first (legacy
// behavior, byte-for-byte). With a budget, eligible followers — known
// lag ≤ maxStale generations behind the group's known head — come
// first in rotation, then the primary; followers over budget are never
// candidates. Known generations are fed by write acks and heartbeats,
// so a member's known gen is a lower bound on its actual gen: any
// write acknowledged through this router raised some member's known
// gen, hence known head ≥ every acked generation, and a follower whose
// known lag is ≤ K is really ≤ K generations behind the acked state.
func (r *Router) readCandidates(gi int, maxStale int) []*member {
	members := r.groups[gi].healthyMembers()
	if maxStale <= 0 || len(members) <= 1 {
		return members
	}
	var head uint64
	for _, m := range members {
		if a := m.applied.Load(); a > head {
			head = a
		}
	}
	var eligible []*member
	for _, m := range members[1:] {
		if head-m.applied.Load() <= uint64(maxStale) {
			eligible = append(eligible, m)
		}
	}
	if len(eligible) == 0 {
		return members[:1]
	}
	k := int(r.rr.Add(1)) % len(eligible)
	out := make([]*member, 0, len(eligible)+1)
	out = append(out, eligible[k:]...)
	out = append(out, eligible[:k]...)
	out = append(out, members[0])
	return out
}

// primaryMember snapshots a group's current head.
func (r *Router) primaryMember(gi int) *member {
	g := r.groups[gi]
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.members) == 0 {
		return nil
	}
	return g.members[0]
}

// scatter fans a read out to the target groups concurrently and collects
// per-group results. fn runs once per group index.
func (r *Router) scatter(targets []int, fn func(gi int) error) error {
	r.reg.Counter("cluster_scatter_total").Inc()
	r.reg.Counter("cluster_scatter_fanout_total").Add(uint64(len(targets)))
	if len(targets) == 1 {
		return fn(targets[0])
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, gi := range targets {
		wg.Add(1)
		go func(slot, gi int) {
			defer wg.Done()
			errs[slot] = fn(gi)
		}(i, gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// targets computes the shard groups a filter must touch.
func (r *Router) targets(filter document.D) ([]int, error) {
	return shard.Targets(filter, r.shardKey, len(r.groups))
}

// ---- Result cache plumbing ------------------------------------------

// shardGens tracks one write generation per (collection, shard group).
// Slots are created lazily and only ever incremented, so each slot — and
// therefore a collection's sum across slots — is strictly increasing
// across routed writes. That monotonicity is what lets the result cache
// and the REST ETags treat "generation changed" as "data may have
// changed".
type shardGens struct {
	mu sync.RWMutex
	m  map[string][]*atomic.Uint64
	n  int // shard group count
}

// slot returns the generation counter for one (collection, group) pair,
// creating the collection's row on first touch.
func (g *shardGens) slot(collection string, gi int) *atomic.Uint64 {
	g.mu.RLock()
	row := g.m[collection]
	g.mu.RUnlock()
	if row == nil {
		g.mu.Lock()
		if row = g.m[collection]; row == nil {
			row = make([]*atomic.Uint64, g.n)
			for i := range row {
				row[i] = new(atomic.Uint64)
			}
			g.m[collection] = row
		}
		g.mu.Unlock()
	}
	return row[gi]
}

// sum reports the collection-wide generation (sum across shard groups).
func (g *shardGens) sum(collection string) uint64 {
	g.mu.RLock()
	row := g.m[collection]
	g.mu.RUnlock()
	var total uint64
	for _, a := range row {
		total += a.Load()
	}
	return total
}

// bumpGen advances one shard's write generation for a collection. Writes
// bump after the routed call returns — even on error, since a replicated
// write can fail after some members already applied it.
func (r *Router) bumpGen(collection string, gi int) {
	r.gens.slot(collection, gi).Add(1)
}

// groupRead serves one per-group read through the result cache, keyed by
// the encoded wire request — the same bytes the call sends (the codec
// sorts map keys, so equivalent filters render identically) — and
// validated by that group's write generation. The generation is loaded
// before the remote call, so an entry can never claim to be fresher than
// the data it holds. A nil cache or cached=false falls through to a
// direct call — updateOne's internal read uses the latter so its
// read-modify-write cycle never consults the cache.
func (r *Router) groupRead(cached bool, collection string, gi int, op string, body []byte, compute func() (any, error)) (any, error) {
	if !cached || r.rc == nil {
		return compute()
	}
	gen := r.gens.slot(collection, gi).Load()
	v, _, err := r.rc.GetOrCompute(rcache.KeyFor(collection, fmt.Sprintf("s%d.%s", gi, op), string(body)), gen, compute)
	//lint:ignore wrapcheck GetOrCompute returns the compute closure's error verbatim — it is already this package's error (wrapping again would double-wrap ErrUnavailable chains)
	return v, err
}

// ---- Write path -----------------------------------------------------

// Insert routes a document to its shard group and replicates it to every
// healthy member. The id is minted at the router (when sharding on _id)
// so all members store an identical document. The write succeeds when at
// least one member accepts it; members that fail are marked down.
func (r *Router) Insert(collection string, doc document.D) (string, error) {
	d, gi, err := r.placeDoc(doc)
	if err != nil {
		return "", err
	}
	body, err := encodeRequest(wire.PathInsert, &wire.InsertRequest{Collection: collection, Doc: d})
	if err != nil {
		return "", err
	}
	id := ""
	err = r.writeOnGroup(gi, func(m *member) error {
		var resp wire.InsertResponse
		if err := r.call(m, wire.PathInsert, body, &resp); err != nil {
			return err
		}
		m.noteGen(resp.Gen)
		if id == "" {
			id = resp.ID
		}
		return nil
	})
	r.bumpGen(collection, gi)
	if err != nil {
		return "", err
	}
	if v, ok := d["_id"].(string); ok && id == "" {
		id = v
	}
	return id, nil
}

// placeDoc normalizes a document for insertion, mints its _id at the
// router when sharding on _id (so every member stores an identical
// document), and returns the group its shard key hashes to. It refuses
// what the nodes' journals could not carry unchanged (see
// document.CheckStorable): the wire encoding would replace invalid
// UTF-8 before a node could refuse it.
func (r *Router) placeDoc(doc document.D) (document.D, int, error) {
	d := document.NormalizeDoc(doc)
	if err := document.CheckStorable(d); err != nil {
		return nil, 0, fmt.Errorf("cluster: insert: %w", err)
	}
	if r.shardKey == "_id" {
		id, has := d["_id"].(string)
		if !has {
			id = shard.MintID()
			d["_id"] = id
		}
		return d, shard.HashShard(id, len(r.groups)), nil
	}
	keyVal, ok := d.Get(r.shardKey)
	if !ok {
		return nil, 0, fmt.Errorf("cluster: document missing shard key %q", r.shardKey)
	}
	return d, shard.HashShard(keyVal, len(r.groups)), nil
}

// writeOnGroup replicates one write call across a group's healthy
// members sequentially (synchronous replication). It succeeds when at
// least one member accepted the write; members that fail are marked
// down, promoting as needed. Remote op errors (e.g. a duplicate id)
// abort the write. Partial replication — some member accepted, some
// lagged — is not silent: it bumps cluster.replica_write_failures and
// names the lagging members in the slow-op trace, since those members
// now need log catch-up before they can serve bounded-staleness reads.
func (r *Router) writeOnGroup(gi int, do func(m *member) error) error {
	members := r.groups[gi].healthyMembers()
	if len(members) == 0 {
		return fmt.Errorf("%w: shard %d has no healthy members", queryengine.ErrUnavailable, gi)
	}
	groupStart := time.Now()
	accepted := 0
	var lagging []string
	var lastErr error
	for _, m := range members {
		start := time.Now()
		err := do(m)
		r.reg.LatencyHistogram(fmt.Sprintf("cluster_shard%d_ms", gi)).ObserveDuration(time.Since(start))
		if err == nil {
			accepted++
			continue
		}
		if !isMemberFailure(err) {
			return err
		}
		lastErr = err
		lagging = append(lagging, m.url)
		r.markUnhealthy(gi, m)
	}
	if accepted == 0 {
		return fmt.Errorf("%w: shard %d write failed on all members: %v", queryengine.ErrUnavailable, gi, lastErr)
	}
	if len(lagging) > 0 {
		r.reg.Counter("cluster.replica_write_failures").Add(uint64(len(lagging)))
		dur := time.Since(groupStart)
		detail := strings.Join(lagging, ",")
		r.tracer.Observe("cluster.replica_write", fmt.Sprintf("shard=%d accepted=%d lagging=%s", gi, accepted, detail), dur)
	}
	return nil
}

// EnsureIndex creates an index over the given dotted paths on every
// member of every group (best effort on unhealthy members). Index
// definitions are cluster-wide metadata, not shard-keyed data, and the
// per-node journal record makes each member's copy durable. The write
// generation bumps so cached plans (and $explain responses) refresh.
func (r *Router) EnsureIndex(collection string, paths ...string) {
	body, err := encodeRequest(wire.PathEnsureIndex, &wire.EnsureIndexRequest{Collection: collection, Paths: paths})
	if err != nil {
		return // names and paths always encode
	}
	for gi := range r.groups {
		r.writeOnGroup(gi, func(m *member) error {
			var resp wire.OKResponse
			return r.call(m, wire.PathEnsureIndex, body, &resp)
		})
		r.bumpGen(collection, gi)
	}
}

// explain scatters a plan-only request to the targeted groups and merges
// the per-shard planner decisions into one document. Each shard plans
// independently (its index set is identical by construction — index DDL
// fans out to every group — but its statistics differ), so the merged
// doc reports every shard's plan plus a top-level mode: the common mode
// when the shards agree, "mixed" otherwise.
func (r *Router) explain(collection string, filter document.D, opts *datastore.FindOpts) (document.D, error) {
	targets, err := r.targets(filter)
	if err != nil {
		return nil, err
	}
	body, err := encodeRequest(wire.PathExplain, &wire.ExplainRequest{Collection: collection, Filter: filter, Opts: wire.FromFindOpts(opts)})
	if err != nil {
		return nil, err
	}
	plans := make([]document.D, len(targets))
	err = r.scatter(targets, func(gi int) error {
		var resp wire.DocResponse
		if err := r.readOnGroup(gi, wire.PathExplain, body, &resp); err != nil {
			return err
		}
		plan := resp.Doc
		plan["shard"] = int64(gi)
		for slot, t := range targets {
			if t == gi {
				plans[slot] = plan
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mode := ""
	shards := make([]any, len(plans))
	for i, p := range plans {
		shards[i] = p
		m, _ := p["mode"].(string)
		switch {
		case i == 0:
			mode = m
		case m != mode:
			mode = "mixed"
		}
	}
	return document.D{
		"collection": collection,
		"sharded":    true,
		"shards":     shards,
		"mode":       mode,
	}, nil
}

// Remove deletes matching documents on every targeted group's members.
func (r *Router) Remove(collection string, filter document.D) (int, error) {
	targets, err := r.targets(filter)
	if err != nil {
		return 0, err
	}
	body, err := encodeRequest(wire.PathRemove, &wire.RemoveRequest{Collection: collection, Filter: filter})
	if err != nil {
		return 0, err
	}
	total := 0
	var mu sync.Mutex
	err = r.scatter(targets, func(gi int) error {
		first := true
		werr := r.writeOnGroup(gi, func(m *member) error {
			var resp wire.CountResponse
			if err := r.call(m, wire.PathRemove, body, &resp); err != nil {
				return err
			}
			m.noteGen(resp.Gen)
			mu.Lock()
			if first {
				total += resp.N
				first = false
			}
			mu.Unlock()
			return nil
		})
		r.bumpGen(collection, gi)
		return werr
	})
	return total, err
}

// updateMany replicates an UpdateMany across the targeted groups.
func (r *Router) updateMany(collection string, filter, update document.D) (datastore.UpdateResult, error) {
	if err := document.CheckStorable(update); err != nil {
		return datastore.UpdateResult{}, fmt.Errorf("cluster: update: %w", err)
	}
	targets, err := r.targets(filter)
	if err != nil {
		return datastore.UpdateResult{}, err
	}
	body, err := encodeRequest(wire.PathUpdate, &wire.UpdateRequest{Collection: collection, Filter: filter, Update: update, Many: true})
	if err != nil {
		return datastore.UpdateResult{}, err
	}
	var res datastore.UpdateResult
	var mu sync.Mutex
	err = r.scatter(targets, func(gi int) error {
		first := true
		werr := r.writeOnGroup(gi, func(m *member) error {
			var resp wire.UpdateResponse
			if err := r.call(m, wire.PathUpdate, body, &resp); err != nil {
				return err
			}
			m.noteGen(resp.Gen)
			mu.Lock()
			if first {
				res.Matched += resp.Matched
				res.Modified += resp.Modified
				first = false
			}
			mu.Unlock()
			return nil
		})
		r.bumpGen(collection, gi)
		return werr
	})
	return res, err
}

// updateOne updates exactly one matching document cluster-wide: it reads
// one match to learn its _id, then replicates an UpdateMany pinned to
// that _id so every replica modifies the same document.
func (r *Router) updateOne(collection string, filter, update document.D) (datastore.UpdateResult, error) {
	// The pinning read bypasses the result cache: a read-modify-write
	// cycle must see the shard's current state, not a cached snapshot,
	// to preserve the ≥1-ack replication semantics.
	docs, err := r.findAllCached(collection, filter, &datastore.FindOpts{Limit: 1}, false)
	if err != nil {
		return datastore.UpdateResult{}, err
	}
	if len(docs) == 0 {
		return datastore.UpdateResult{}, nil
	}
	id, _ := docs[0]["_id"].(string)
	if id == "" {
		return datastore.UpdateResult{}, fmt.Errorf("cluster: matched document has no _id")
	}
	return r.updateMany(collection, document.D{"_id": id}, update)
}

// ---- Read path ------------------------------------------------------

// findAll scatter-gathers a filtered read and applies the global
// merge-sort/skip/limit, matching internal/shard semantics exactly.
// Per-group responses are served through the result cache.
//
// Read contract (shared by Get, count, distinct and aggregate): results
// are shared, read-only snapshots. A cached result is handed to every
// caller that hits it, so neither the returned slice nor the documents
// in it may be mutated; Copy() a document first.
func (r *Router) findAll(collection string, filter document.D, opts *datastore.FindOpts) ([]document.D, error) {
	return r.findAllCached(collection, filter, opts, true)
}

func (r *Router) findAllCached(collection string, filter document.D, opts *datastore.FindOpts, cached bool) ([]document.D, error) {
	targets, err := r.targets(filter)
	if err != nil {
		return nil, err
	}
	perShard, sortSpec, skip, limit := shard.SplitFindOpts(opts)
	// Single-target pass-through: one shard holds every possible match,
	// so it can apply sort/skip/limit itself and the router returns its
	// answer verbatim — no re-merge, no over-fetch.
	if len(targets) == 1 {
		perShard = opts
	}
	// The staleness budget rides FindOpts (and therefore the wire form,
	// so it lands in the per-shard cache key: a follower-served result
	// can never satisfy a later exact read).
	maxStale := 0
	if opts != nil {
		maxStale = opts.MaxStaleness
	}
	body, err := encodeRequest(wire.PathFind, &wire.FindRequest{Collection: collection, Filter: filter, Opts: wire.FromFindOpts(perShard)})
	if err != nil {
		return nil, err
	}
	results := make([][]document.D, len(targets))
	err = r.scatter(targets, func(gi int) error {
		v, err := r.groupRead(cached, collection, gi, "find", body, func() (any, error) {
			var resp wire.DocsResponse
			if err := r.readOnGroupStale(gi, wire.PathFind, body, &resp, maxStale); err != nil {
				return nil, err
			}
			return resp.Docs, nil
		})
		if err != nil {
			return err
		}
		docs := v.([]document.D)
		for slot, t := range targets {
			if t == gi {
				results[slot] = docs
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(targets) == 1 {
		return results[0], nil
	}
	var all []document.D
	for _, docs := range results {
		all = append(all, docs...)
	}
	return shard.MergeDocs(all, sortSpec, skip, limit)
}

// Get fetches one document by id, routing directly when sharding on _id.
func (r *Router) Get(collection, id string) (document.D, error) {
	if r.shardKey == "_id" {
		body, err := encodeRequest(wire.PathGet, &wire.GetRequest{Collection: collection, ID: id})
		if err != nil {
			return nil, err
		}
		var resp wire.DocResponse
		if err := r.readOnGroup(shard.HashShard(id, len(r.groups)), wire.PathGet, body, &resp); err != nil {
			return nil, err
		}
		return resp.Doc, nil
	}
	docs, err := r.findAll(collection, document.D{"_id": id}, &datastore.FindOpts{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, datastore.ErrNotFound
	}
	return docs[0], nil
}

// count scatter-gathers a count.
func (r *Router) count(collection string, filter document.D) (int, error) {
	targets, err := r.targets(filter)
	if err != nil {
		return 0, err
	}
	body, err := encodeRequest(wire.PathCount, &wire.CountRequest{Collection: collection, Filter: filter})
	if err != nil {
		return 0, err
	}
	total := 0
	var mu sync.Mutex
	err = r.scatter(targets, func(gi int) error {
		v, err := r.groupRead(true, collection, gi, "count", body, func() (any, error) {
			var resp wire.CountResponse
			if err := r.readOnGroup(gi, wire.PathCount, body, &resp); err != nil {
				return nil, err
			}
			return resp.N, nil
		})
		if err != nil {
			return err
		}
		mu.Lock()
		total += v.(int)
		mu.Unlock()
		return nil
	})
	return total, err
}

// distinct scatter-gathers per-shard distinct lists and unions them.
func (r *Router) distinct(collection, path string, filter document.D) ([]any, error) {
	targets, err := r.targets(filter)
	if err != nil {
		return nil, err
	}
	body, err := encodeRequest(wire.PathDistinct, &wire.DistinctRequest{Collection: collection, Path: path, Filter: filter})
	if err != nil {
		return nil, err
	}
	lists := make([][]any, len(targets))
	err = r.scatter(targets, func(gi int) error {
		v, err := r.groupRead(true, collection, gi, "distinct", body, func() (any, error) {
			var resp wire.DistinctResponse
			if err := r.readOnGroup(gi, wire.PathDistinct, body, &resp); err != nil {
				return nil, err
			}
			return resp.Values, nil
		})
		if err != nil {
			return err
		}
		vals := v.([]any)
		for slot, t := range targets {
			if t == gi {
				lists[slot] = vals
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return shard.MergeDistinct(lists), nil
}

// aggregate runs a pipeline over the cluster. When a leading $match pins
// the shard key to one group, the whole pipeline is pushed down to that
// node. Otherwise the leading $match (if any) is pushed down as a find
// filter, the matching documents are gathered, and the remaining stages
// run at the router via the datastore's own pipeline executor — so
// cross-shard $group/$sort results are identical to a standalone store.
func (r *Router) aggregate(collection string, pipeline []document.D) ([]document.D, error) {
	var matchFilter document.D
	rest := pipeline
	if len(pipeline) > 0 {
		if m, ok := pipeline[0]["$match"]; ok {
			if md, ok := toDoc(m); ok {
				matchFilter = md
				rest = pipeline[1:]
			}
		}
	}
	targets, err := r.targets(matchFilter)
	if err != nil {
		return nil, err
	}
	if len(targets) == 1 {
		// Single-shard: full pushdown.
		body, err := encodeRequest(wire.PathAggregate, &wire.AggregateRequest{Collection: collection, Pipeline: pipeline})
		if err != nil {
			return nil, err
		}
		var resp wire.DocsResponse
		if err := r.readOnGroup(targets[0], wire.PathAggregate, body, &resp); err != nil {
			return nil, err
		}
		return resp.Docs, nil
	}
	docs, err := r.findAll(collection, matchFilter, nil)
	if err != nil {
		return nil, err
	}
	return datastore.RunPipeline(docs, rest)
}

// MapReduce runs a registered job across every shard and re-reduces the
// partial results at the router (jobs must have associative reducers,
// the same contract as datastore.MapReduce).
func (r *Router) MapReduce(collection, jobName string, filter document.D) ([]document.D, error) {
	job, ok := LookupJob(jobName)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown mapreduce job %q", jobName)
	}
	targets, err := r.targets(filter)
	if err != nil {
		return nil, err
	}
	body, err := encodeRequest(wire.PathMapReduce, &wire.MapReduceRequest{Collection: collection, Job: jobName, Filter: filter})
	if err != nil {
		return nil, err
	}
	partials := make([][]document.D, len(targets))
	err = r.scatter(targets, func(gi int) error {
		var resp wire.DocsResponse
		if err := r.readOnGroup(gi, wire.PathMapReduce, body, &resp); err != nil {
			return err
		}
		for slot, t := range targets {
			if t == gi {
				partials[slot] = resp.Docs
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Re-reduce: group partial values by key.
	groups := make(map[string][]any)
	var keys []string
	for _, docs := range partials {
		for _, d := range docs {
			k, _ := d["_id"].(string)
			if _, seen := groups[k]; !seen {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], d["value"])
		}
	}
	sort.Strings(keys)
	out := make([]document.D, 0, len(keys))
	for _, k := range keys {
		vals := groups[k]
		v := vals[0]
		if len(vals) > 1 {
			v = document.Normalize(job.Reduce(k, vals))
		}
		out = append(out, document.D{"_id": k, "value": v})
	}
	return out, nil
}

func toDoc(v any) (document.D, bool) {
	switch x := v.(type) {
	case document.D:
		return x, true
	case map[string]any:
		return document.D(x), true
	}
	return nil, false
}

// ---- Health ---------------------------------------------------------

// healthLoop probes members until Close.
func (r *Router) healthLoop(interval time.Duration) {
	t := r.clock.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.Chan():
			r.CheckNow()
		}
	}
}

// CheckNow probes every member's health endpoint once, marking members
// up or down and promoting replicas where a primary is down. It returns
// the number of healthy members.
//
// Re-admission goes through the replication log: a down member that
// answers its probe again is first caught up — the router ships it the
// entries past its last applied generation from the group's current
// head (falling back to a snapshot copy only when the log has rotated
// past it) — and only then marked healthy. A member whose catch-up
// fails stays down and is retried on the next sweep. Healthy members
// whose known generation lags the group head are also topped up
// (anti-entropy), closing the window partial write fan-outs open.
func (r *Router) CheckNow() int {
	r.reg.Counter("cluster_health_checks_total").Inc()
	healthy := 0
	for gi := range r.groups {
		healthy += r.checkGroupNow(gi)
	}
	r.reg.Gauge("cluster_members_healthy").Set(int64(healthy))
	return healthy
}

// checkGroupNow probes one group, re-admitting recovered members via
// log catch-up. Returns the group's healthy member count.
func (r *Router) checkGroupNow(gi int) int {
	g := r.groups[gi]
	g.mu.RLock()
	members := append([]*member{}, g.members...)
	g.mu.RUnlock()
	healthy := 0
	for _, m := range members {
		ok, gen := r.probe(m)
		g.mu.RLock()
		wasHealthy := m.healthy
		g.mu.RUnlock()
		if ok && !wasHealthy {
			// Probed gen, not the router's remembered one: a restarted
			// node may have come back at a lower generation than its
			// last ack.
			if !r.catchUp(gi, m, gen) {
				ok = false
			}
		} else if ok && gen > 0 {
			m.noteGen(gen)
		}
		g.mu.Lock()
		if ok {
			if !m.healthy {
				m.healthy = true
				r.reg.Counter("cluster_member_recovered_total").Inc()
			}
			healthy++
		} else if m.healthy {
			m.healthy = false
			r.reg.Counter("cluster_member_down_total").Inc()
		}
		r.promoteLocked(g)
		g.mu.Unlock()
	}
	r.antiEntropy(gi)
	return healthy
}

// catchUp ships a recovering member the log entries past its applied
// generation from the group's current healthy head. True means the
// member is safe to re-admit (including the no-source case: a group
// with no other healthy member has nothing newer to ship).
func (r *Router) catchUp(gi int, m *member, from uint64) bool {
	src := r.catchUpSource(gi, m)
	if src == nil {
		return true
	}
	res, err := r.repl.CatchUp(src.url, m.url, from)
	if err != nil {
		r.reg.Counter("cluster.repl_catchup_failures").Inc()
		return false
	}
	r.reg.Counter("cluster.repl_readmissions").Inc()
	r.reg.Counter("cluster.repl_catchup_entries").Add(uint64(res.Shipped))
	if res.Snapshot {
		r.reg.Counter("cluster.repl_snapshot_copies").Inc()
	}
	m.noteGen(res.Head)
	return true
}

// catchUpSource picks the member to ship log entries from: the group's
// current head, or the first healthy member that is not the target.
func (r *Router) catchUpSource(gi int, dst *member) *member {
	g := r.groups[gi]
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, m := range g.members {
		if m.healthy && m != dst {
			return m
		}
	}
	return nil
}

// antiEntropy tops up healthy members whose known applied generation
// lags the group's known head — the residue of partial write fan-outs
// (the member was briefly unreachable, the write succeeded elsewhere).
func (r *Router) antiEntropy(gi int) {
	members := r.groups[gi].healthyMembers()
	if len(members) <= 1 {
		return
	}
	var head uint64
	var src *member
	for _, m := range members {
		if a := m.applied.Load(); a > head || src == nil {
			head = a
			src = m
		}
	}
	for _, m := range members {
		if m == src {
			continue
		}
		if a := m.applied.Load(); a < head {
			res, err := r.repl.CatchUp(src.url, m.url, a)
			if err != nil {
				r.reg.Counter("cluster.repl_catchup_failures").Inc()
				continue
			}
			r.reg.Counter("cluster.repl_catchup_entries").Add(uint64(res.Shipped))
			m.noteGen(res.Head)
		}
	}
}

// probe checks one member's health endpoint, reporting its applied
// replication generation when healthy.
func (r *Router) probe(m *member) (bool, uint64) {
	if f := r.transportFaults(); f != nil && f.DropCall() {
		r.reg.Counter("cluster_calls_dropped_total").Inc()
		return false, 0
	}
	resp, err := r.client.Get(m.url + wire.Version + wire.PathHealth)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	var h wire.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, 0
	}
	return h.OK, h.AppliedGen
}

// Healthy reports the per-group healthy member counts (tests and status
// pages).
func (r *Router) Healthy() []int {
	out := make([]int, len(r.groups))
	for gi, g := range r.groups {
		out[gi] = len(g.healthyMembers())
	}
	return out
}

// Primary reports the current primary URL of a shard group.
func (r *Router) Primary(gi int) string {
	if gi < 0 || gi >= len(r.groups) {
		return ""
	}
	g := r.groups[gi]
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.members) == 0 {
		return ""
	}
	return g.members[0].url
}

// ---- queryengine.Backend --------------------------------------------

// C returns the routed view of one collection. Router satisfies
// queryengine.Backend so an Engine (and the REST API above it) can front
// the cluster directly.
func (r *Router) C(name string) queryengine.Collection {
	return routedCollection{r: r, name: name}
}

// routedCollection adapts the router's per-collection ops to the
// queryengine.Collection contract.
type routedCollection struct {
	r    *Router
	name string
}

func (c routedCollection) FindAll(filter document.D, opts *datastore.FindOpts) ([]document.D, error) {
	return c.r.findAll(c.name, filter, opts)
}

func (c routedCollection) Count(filter document.D) (int, error) {
	return c.r.count(c.name, filter)
}

func (c routedCollection) Distinct(path string, filter document.D) ([]any, error) {
	return c.r.distinct(c.name, path, filter)
}

func (c routedCollection) UpdateOne(filter, update document.D) (datastore.UpdateResult, error) {
	return c.r.updateOne(c.name, filter, update)
}

func (c routedCollection) UpdateMany(filter, update document.D) (datastore.UpdateResult, error) {
	return c.r.updateMany(c.name, filter, update)
}

func (c routedCollection) Insert(doc document.D) (string, error) {
	return c.r.Insert(c.name, doc)
}

func (c routedCollection) Aggregate(pipeline []document.D) ([]document.D, error) {
	return c.r.aggregate(c.name, pipeline)
}

func (c routedCollection) Explain(filter document.D, opts *datastore.FindOpts) (document.D, error) {
	return c.r.explain(c.name, filter, opts)
}

// Generation reports the sum of this collection's per-shard write
// generations. Each slot only ever increases, so the sum strictly
// increases across routed writes — the monotonicity the engine-level
// result cache and REST ETags rely on.
func (c routedCollection) Generation() uint64 {
	return c.r.gens.sum(c.name)
}
