// Package shard implements the scaling path the paper reserves for
// future work (§IV-D2): "Future scalability can leverage the sharding
// and replication capabilities built in to MongoDB. This will allow us
// to maintain performance at scale ... as well as isolate the various
// roles of the database to separate servers."
//
// A shard.Cluster partitions one logical collection across N shard
// groups by hashed shard key, replicates every write synchronously to
// each group's replicas, scatter-gathers reads with merge-sort/limit
// semantics, and supports primary failover by replica promotion. Role
// isolation falls out of read preferences: analytics can read from
// secondaries while the workflow engine writes to primaries.
package shard

import (
	"fmt"
	"sync"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// ReadPreference selects which member serves reads.
type ReadPreference int

const (
	// ReadPrimary serves reads from each shard's primary.
	ReadPrimary ReadPreference = iota
	// ReadSecondary round-robins reads over replicas (falling back to the
	// primary when a shard has none).
	ReadSecondary
)

// Options configures a cluster.
type Options struct {
	// Shards is the number of shard groups (>= 1).
	Shards int
	// ReplicasPerShard is the number of synchronous replicas per group.
	ReplicasPerShard int
	// ShardKey is the dotted field the hash partitioner uses; empty means
	// "_id".
	ShardKey string
}

// Cluster is a sharded, replicated logical collection namespace.
type Cluster struct {
	opts   Options
	groups []*group

	mu sync.Mutex
	rr int // round-robin cursor for secondary reads
}

type group struct {
	mu       sync.RWMutex
	primary  *datastore.Store
	replicas []*datastore.Store
}

// NewCluster builds an in-memory sharded cluster.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least one shard")
	}
	if opts.ReplicasPerShard < 0 {
		return nil, fmt.Errorf("shard: negative replica count")
	}
	if opts.ShardKey == "" {
		opts.ShardKey = "_id"
	}
	c := &Cluster{opts: opts}
	for i := 0; i < opts.Shards; i++ {
		g := &group{primary: datastore.MustOpenMemory()}
		for r := 0; r < opts.ReplicasPerShard; r++ {
			g.replicas = append(g.replicas, datastore.MustOpenMemory())
		}
		c.groups = append(c.groups, g)
	}
	return c, nil
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.groups) }

// shardFor hashes a shard-key value to a group index.
func (c *Cluster) shardFor(v any) int {
	return hashShard(v, len(c.groups))
}

// Insert routes a document to its shard and writes it to the primary and
// all replicas. Documents missing the shard key are rejected (hash-
// sharding needs the key present).
func (c *Cluster) Insert(collection string, doc document.D) (string, error) {
	d := document.NormalizeDoc(doc)
	var idx int
	if c.opts.ShardKey == "_id" {
		// Mint the id at the router so every member stores an identical
		// document and the hash routes deterministically.
		id, has := d["_id"].(string)
		if !has {
			id = MintID()
			d["_id"] = id
		}
		idx = c.shardFor(id)
	} else {
		keyVal, ok := d.Get(c.opts.ShardKey)
		if !ok {
			return "", fmt.Errorf("shard: document missing shard key %q", c.opts.ShardKey)
		}
		idx = c.shardFor(keyVal)
	}
	g := c.groups[idx]
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, err := g.primary.C(collection).Insert(d)
	if err != nil {
		return "", err
	}
	d["_id"] = id
	for _, rep := range g.replicas {
		if _, err := rep.C(collection).Insert(d); err != nil {
			return id, fmt.Errorf("shard: replica write: %w", err)
		}
	}
	return id, nil
}

// readStore picks the member store of a group per the preference.
func (c *Cluster) readStore(g *group, pref ReadPreference) *datastore.Store {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if pref == ReadSecondary && len(g.replicas) > 0 {
		c.mu.Lock()
		c.rr++
		i := c.rr % len(g.replicas)
		c.mu.Unlock()
		return g.replicas[i]
	}
	return g.primary
}

// FindAll scatter-gathers a query across all shards, merge-sorting and
// applying skip/limit globally. A filter pinning the shard key to one
// value routes to a single shard.
func (c *Cluster) FindAll(collection string, filter document.D, opts *datastore.FindOpts, pref ReadPreference) ([]document.D, error) {
	targets, err := c.targetsFor(filter)
	if err != nil {
		return nil, err
	}
	// Fetch full (un-skipped, un-limited) result sets per shard; apply
	// global sort/skip/limit after the merge.
	shardOpts, sortSpec, skip, limit := SplitFindOpts(opts)
	var out []document.D
	for _, gi := range targets {
		st := c.readStore(c.groups[gi], pref)
		docs, err := st.C(collection).FindAll(filter, shardOpts)
		if err != nil {
			return nil, err
		}
		out = append(out, docs...)
	}
	return MergeDocs(out, sortSpec, skip, limit)
}

// targetsFor returns the shard indexes a filter must touch.
func (c *Cluster) targetsFor(filter document.D) ([]int, error) {
	return Targets(filter, c.opts.ShardKey, len(c.groups))
}

// Count scatter-gathers a count.
func (c *Cluster) Count(collection string, filter document.D, pref ReadPreference) (int, error) {
	targets, err := c.targetsFor(filter)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, gi := range targets {
		st := c.readStore(c.groups[gi], pref)
		n, err := st.C(collection).Count(filter)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// FindID routes directly by id when sharding on _id, else scatters.
func (c *Cluster) FindID(collection, id string, pref ReadPreference) (document.D, error) {
	if c.opts.ShardKey == "_id" {
		st := c.readStore(c.groups[c.shardFor(id)], pref)
		return st.C(collection).FindID(id)
	}
	for _, g := range c.groups {
		st := c.readStore(g, pref)
		if d, err := st.C(collection).FindID(id); err == nil {
			return d, nil
		}
	}
	return nil, datastore.ErrNotFound
}

// UpdateMany applies an update on every targeted shard's primary and
// replicas (synchronous replication).
func (c *Cluster) UpdateMany(collection string, filter, update document.D) (datastore.UpdateResult, error) {
	targets, err := c.targetsFor(filter)
	if err != nil {
		return datastore.UpdateResult{}, err
	}
	var res datastore.UpdateResult
	for _, gi := range targets {
		g := c.groups[gi]
		g.mu.RLock()
		r, err := g.primary.C(collection).UpdateMany(filter, update)
		if err != nil {
			g.mu.RUnlock()
			return res, err
		}
		for _, rep := range g.replicas {
			if _, err := rep.C(collection).UpdateMany(filter, update); err != nil {
				g.mu.RUnlock()
				return res, fmt.Errorf("shard: replica update: %w", err)
			}
		}
		g.mu.RUnlock()
		res.Matched += r.Matched
		res.Modified += r.Modified
	}
	return res, nil
}

// Remove deletes matching documents everywhere they live.
func (c *Cluster) Remove(collection string, filter document.D) (int, error) {
	targets, err := c.targetsFor(filter)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, gi := range targets {
		g := c.groups[gi]
		g.mu.RLock()
		n, err := g.primary.C(collection).Remove(filter)
		if err != nil {
			g.mu.RUnlock()
			return total, err
		}
		for _, rep := range g.replicas {
			if _, err := rep.C(collection).Remove(filter); err != nil {
				g.mu.RUnlock()
				return total, fmt.Errorf("shard: replica remove: %w", err)
			}
		}
		g.mu.RUnlock()
		total += n
	}
	return total, nil
}

// EnsureIndex creates the index on every member of every shard.
func (c *Cluster) EnsureIndex(collection, path string) {
	for _, g := range c.groups {
		g.mu.RLock()
		g.primary.C(collection).EnsureIndex(path)
		for _, rep := range g.replicas {
			rep.C(collection).EnsureIndex(path)
		}
		g.mu.RUnlock()
	}
}

// FailPrimary simulates a primary failure on one shard by promoting its
// first replica. Returns an error when the shard has no replica to
// promote.
func (c *Cluster) FailPrimary(shard int) error {
	if shard < 0 || shard >= len(c.groups) {
		return fmt.Errorf("shard: index %d out of range", shard)
	}
	g := c.groups[shard]
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.replicas) == 0 {
		return fmt.Errorf("shard: shard %d has no replica to promote", shard)
	}
	g.primary = g.replicas[0]
	g.replicas = g.replicas[1:]
	return nil
}

// ShardCounts reports per-shard document counts for a collection (for
// balance inspection).
func (c *Cluster) ShardCounts(collection string) []int {
	out := make([]int, len(c.groups))
	for i, g := range c.groups {
		g.mu.RLock()
		n, _ := g.primary.C(collection).Count(nil)
		g.mu.RUnlock()
		out[i] = n
	}
	return out
}
