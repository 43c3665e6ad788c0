package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
	"matproj/internal/queryengine"
	"matproj/internal/rcache"
	"matproj/internal/restapi"
	"matproj/internal/webui"
)

// The deployment mirrors `mpserve -role router` with four `-role node`
// peers: the constants are mpserve's flag defaults and the values its
// router path passes.
const (
	shardGroups    = 2
	groupMembers   = 2
	healthInterval = 2 * time.Second
	cacheEntries   = 4096
	slowQuery      = 250 * time.Millisecond
	loadBatch      = 500
	apiKeys        = 40
)

// materialIndexes are the hash indexes the materials builder creates.
var materialIndexes = []string{"pretty_formula", "elements", "band_gap", "nelectrons"}

// server is one loopback HTTP listener and the goroutine serving it.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return s, nil
}

// stop closes the listener, waits for in-flight requests, and waits for
// the serving goroutine to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.done
}

// member is one shard node: a durable store with its own registry, as a
// separate `mpserve -role node` process would have.
type member struct {
	index int // peer position; group = index % shardGroups
	dir   string
	store *datastore.Store
	reg   *obs.Registry
	srv   *server
}

// deployment is the whole serving stack of one run.
type deployment struct {
	dir     string
	members []*member
	reg     *obs.Registry
	router  *cluster.Router
	api     *server
}

// deploy starts the nodes, router, query engine and REST server, and
// loads docs through the router. A non-nil rec installs the span
// recorder at every layer boundary.
func deploy(dir string, docs []document.D, rec *recorder) (d *deployment, err error) {
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	groups := make([][]string, shardGroups)
	for p := 0; p < shardGroups*groupMembers; p++ {
		m := &member{index: p, dir: filepath.Join(dir, fmt.Sprintf("peer%d", p)), reg: obs.NewRegistry()}
		if m.store, err = datastore.Open(m.dir); err != nil {
			return d, fmt.Errorf("open peer %d: %w", p, err)
		}
		m.store.Observe(m.reg, nil)
		var h http.Handler = cluster.NewNode(fmt.Sprintf("peer%d", p), m.store, m.reg)
		if rec != nil {
			h = rec.nodeHandler(p, h)
		}
		if m.srv, err = startServer(h); err != nil {
			return d, err
		}
		if rec != nil {
			rec.addMember(m.srv.url, p)
		}
		d.members = append(d.members, m)
		groups[p%shardGroups] = append(groups[p%shardGroups], m.srv.url)
	}

	// The corpus loads through a router without the health loop, like a
	// bulk load before the service opens. With the loop running, its
	// anti-entropy pass races the load's member-by-member write fan-out:
	// it copies a batch from the primary to the replica before the router
	// writes it there, and the router's write then fails with a duplicate
	// _id. publish_mixed's writes meet that race under load.
	loader, err := cluster.NewRouter(cluster.RouterOptions{Groups: groups})
	if err != nil {
		return d, fmt.Errorf("loader: %w", err)
	}
	defer loader.Close()
	for _, path := range materialIndexes {
		loader.EnsureIndex("materials", path)
	}
	for i := 0; i < len(docs); i += loadBatch {
		batch := docs[i:min(i+loadBatch, len(docs))]
		ids, err := loader.InsertMany("materials", batch)
		if err != nil {
			return d, fmt.Errorf("load corpus: %w", err)
		}
		if len(ids) != len(batch) {
			return d, fmt.Errorf("load corpus: %d ids for %d docs", len(ids), len(batch))
		}
	}

	d.reg = obs.NewRegistry()
	tracer := obs.NewTracer(slowQuery, 0)
	rc := rcache.New(cacheEntries, d.reg)
	opts := cluster.RouterOptions{
		Groups:         groups,
		Registry:       d.reg,
		HealthInterval: healthInterval,
		Cache:          rc,
		Tracer:         tracer,
	}
	if rec != nil {
		opts.Client = rec.wireClient()
	}
	if d.router, err = cluster.NewRouter(opts); err != nil {
		return d, fmt.Errorf("router: %w", err)
	}

	var backend queryengine.Backend = d.router
	if rec != nil {
		backend = rec.backend(d.router)
	}
	eng := queryengine.NewWithBackend(backend, queryengine.WithRateLimit(10000, time.Minute))
	eng.SetCache(rc)
	eng.Observe(d.reg, tracer)
	eng.AddAlias("materials", "formula", "pretty_formula")
	eng.AddAlias("materials", "energy", "final_energy")
	eng.AddAlias("materials", "bandgap", "band_gap")

	local := datastore.MustOpenMemory()
	api := restapi.NewServer(eng, restapi.NewAuth(local), local)
	api.MaxBodyBytes = restapi.DefaultMaxBodyBytes
	api.Observe(d.reg, tracer)
	mux := http.NewServeMux()
	mux.Handle("/rest/", api)
	mux.Handle("/auth/", api)
	mux.Handle("/metrics", api)
	mux.Handle("/status", api)
	mux.Handle("/", webui.NewServer(eng, local))
	var h http.Handler = mux
	if rec != nil {
		h = rec.apiHandler(mux)
	}
	if d.api, err = startServer(h); err != nil {
		return d, err
	}
	return d, nil
}

// group returns the members of shard group gi, primary first.
func (d *deployment) group(gi int) []*member {
	var out []*member
	for _, m := range d.members {
		if m.index%shardGroups == gi {
			out = append(out, m)
		}
	}
	return out
}

// close stops every server and the router and closes every store.
func (d *deployment) close() {
	if d.api != nil {
		d.api.stop()
		d.api = nil
	}
	if d.router != nil {
		d.router.Close()
	}
	for _, m := range d.members {
		_ = m.closeNode() // teardown: the data directory is removed next
	}
}

// closeNode stops a member's listener and closes its store.
func (m *member) closeNode() error {
	if m.srv != nil {
		m.srv.stop()
		m.srv = nil
	}
	if m.store == nil {
		return nil
	}
	err := m.store.Close()
	m.store = nil
	return err
}

// remove deletes the deployment's data directories.
func (d *deployment) remove() error {
	if err := os.RemoveAll(d.dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("remove %s: %w", d.dir, err)
	}
	return nil
}
