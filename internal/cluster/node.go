// Package cluster is the sharded deployment the paper reserves for
// future scalability (§IV-D2): shard nodes expose datastore primitives
// over an internal HTTP API, and a query router owns the shard map,
// scattering reads across groups, replicating writes to group members,
// and promoting replicas when a primary stops answering. Hash placement
// and the scatter-gather merge live in internal/shard (partition.go).
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/obs"
)

// Job is a named MapReduce program. Go functions cannot cross the wire,
// so distributed MapReduce runs jobs registered by name in every binary
// of the cluster: nodes execute the map/reduce over their shard, the
// router merges the partials and re-reduces (ReduceFunc must therefore be
// associative, same contract as datastore.MapReduce).
type Job struct {
	Map    datastore.MapFunc
	Reduce datastore.ReduceFunc
}

var (
	jobsMu sync.RWMutex
	jobs   = make(map[string]Job)
)

// RegisterJob installs a named MapReduce job in the process-wide
// registry. Registering the same name twice overwrites (last wins), so
// tests can re-register.
func RegisterJob(name string, j Job) {
	jobsMu.Lock()
	jobs[name] = j
	jobsMu.Unlock()
}

// LookupJob fetches a registered job by name.
func LookupJob(name string) (Job, bool) {
	jobsMu.RLock()
	j, ok := jobs[name]
	jobsMu.RUnlock()
	return j, ok
}

// Node is one shard member: a datastore exposed over the internal wire
// protocol. It is an http.Handler; mount it at the server root (paths
// already carry the /internal/v1 prefix).
type Node struct {
	id    string
	store *datastore.Store
	reg   *obs.Registry
	mux   *http.ServeMux
}

// NewNode wraps a store in the node transport. reg may be nil (metrics
// become no-ops).
func NewNode(id string, store *datastore.Store, reg *obs.Registry) *Node {
	n := &Node{id: id, store: store, reg: reg, mux: http.NewServeMux()}
	// Every node is a replication-log peer: memory-backed stores get the
	// bounded entry ring (durable stores already log via their journal).
	store.EnableReplication(0)
	post := func(path string, h func(w http.ResponseWriter, r *http.Request) error) {
		n.mux.HandleFunc("POST "+wire.Version+path, func(w http.ResponseWriter, r *http.Request) {
			n.serve(path, w, r, h)
		})
	}
	post(wire.PathInsert, n.handleInsert)
	post(wire.PathInsertMany, n.handleInsertMany)
	post(wire.PathBulkWrite, n.handleBulkWrite)
	post(wire.PathFind, n.handleFind)
	post(wire.PathCount, n.handleCount)
	post(wire.PathGet, n.handleGet)
	post(wire.PathUpdate, n.handleUpdate)
	post(wire.PathRemove, n.handleRemove)
	post(wire.PathAggregate, n.handleAggregate)
	post(wire.PathDistinct, n.handleDistinct)
	post(wire.PathMapReduce, n.handleMapReduce)
	post(wire.PathEnsureIndex, n.handleEnsureIndex)
	post(wire.PathExplain, n.handleExplain)
	post(wire.PathReplPull, n.handleReplPull)
	post(wire.PathReplApply, n.handleReplApply)
	post(wire.PathReplSnapshot, n.handleReplSnapshot)
	n.mux.HandleFunc("GET "+wire.Version+wire.PathHealth, n.handleHealth)
	return n
}

// ID reports the node's identifier (used in health responses).
func (n *Node) ID() string { return n.id }

// Store exposes the node's underlying datastore (tests and process
// wiring).
func (n *Node) Store() *datastore.Store { return n.store }

func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// serve wraps one op handler with metrics and error mapping.
func (n *Node) serve(op string, w http.ResponseWriter, r *http.Request, h func(http.ResponseWriter, *http.Request) error) {
	start := time.Now()
	err := h(w, r)
	n.reg.Counter("node_ops_total").Inc()
	n.reg.LatencyHistogram("node_op" + op + "_ms").ObserveDuration(time.Since(start))
	if err != nil {
		n.reg.Counter("node_op_errors_total").Inc()
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, datastore.ErrNotFound):
			status = http.StatusNotFound
		case isBadRequest(err):
			status = http.StatusBadRequest
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(wire.ErrorResponse{Error: err.Error()})
	}
}

// badRequestError marks caller mistakes (malformed bodies, unknown jobs)
// so serve maps them to 400 rather than 500.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return badRequestError{fmt.Errorf(format, args...)}
}

func isBadRequest(err error) bool {
	var br badRequestError
	return errors.As(err, &br)
}

// codecResponse is a response that encodes itself through the document
// codec (the result-set and single-document responses).
type codecResponse interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// writeJSON encodes a response in full before sending it, so an encode
// failure leaves the reply unwritten and serve can still answer 500.
func writeJSON(w http.ResponseWriter, v any) error {
	var body []byte
	var err error
	if c, ok := v.(codecResponse); ok {
		body, err = c.AppendJSON(nil)
	} else if body, err = json.Marshal(v); err == nil {
		body = append(body, '\n')
	}
	if err != nil {
		return fmt.Errorf("cluster: encode response: %w", err)
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("cluster: write response: %w", err)
	}
	return nil
}

// decodeRequest reads and parses a request body. The document codec
// hands back normalized trees, so handlers pass them to the store as
// they are; a body that does not parse is the caller's mistake (400).
func decodeRequest(r *http.Request, req wire.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return badRequest("cluster: read request: %v", err)
	}
	if err := wire.DecodeRequest(body, req); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

func (n *Node) handleInsert(w http.ResponseWriter, r *http.Request) error {
	var req wire.InsertRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	id, err := n.store.C(req.Collection).Insert(req.Doc)
	if err != nil {
		return fmt.Errorf("cluster: insert %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.InsertResponse{ID: id, Gen: n.store.ReplGen()})
}

func (n *Node) handleInsertMany(w http.ResponseWriter, r *http.Request) error {
	var req wire.InsertManyRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	ids, err := n.store.C(req.Collection).InsertMany(req.Docs)
	if err != nil {
		return fmt.Errorf("cluster: insertMany %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.InsertManyResponse{IDs: ids, Gen: n.store.ReplGen()})
}

func (n *Node) handleBulkWrite(w http.ResponseWriter, r *http.Request) error {
	var req wire.BulkWriteRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	res, err := n.store.C(req.Collection).BulkWrite(req.ToBulkOps())
	if err != nil {
		return fmt.Errorf("cluster: bulkWrite %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.FromBulkResult(res, n.store.ReplGen()))
}

func (n *Node) handleFind(w http.ResponseWriter, r *http.Request) error {
	var req wire.FindRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	docs, err := n.store.C(req.Collection).FindAll(req.Filter, req.Opts.ToFindOpts())
	if err != nil {
		return fmt.Errorf("cluster: find %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.NewDocsResponse(docs))
}

func (n *Node) handleCount(w http.ResponseWriter, r *http.Request) error {
	var req wire.CountRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	c, err := n.store.C(req.Collection).Count(req.Filter)
	if err != nil {
		return fmt.Errorf("cluster: count %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.CountResponse{N: c})
}

func (n *Node) handleGet(w http.ResponseWriter, r *http.Request) error {
	var req wire.GetRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	d, err := n.store.C(req.Collection).FindID(req.ID)
	if err != nil {
		return fmt.Errorf("cluster: get %s/%s: %w", req.Collection, req.ID, err)
	}
	return writeJSON(w, wire.DocResponse{Doc: d})
}

func (n *Node) handleUpdate(w http.ResponseWriter, r *http.Request) error {
	var req wire.UpdateRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	c := n.store.C(req.Collection)
	var res datastore.UpdateResult
	var err error
	if req.Many {
		res, err = c.UpdateMany(req.Filter, req.Update)
	} else {
		res, err = c.UpdateOne(req.Filter, req.Update)
	}
	if err != nil {
		return fmt.Errorf("cluster: update %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.UpdateResponse{Matched: res.Matched, Modified: res.Modified, Gen: n.store.ReplGen()})
}

func (n *Node) handleRemove(w http.ResponseWriter, r *http.Request) error {
	var req wire.RemoveRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	c, err := n.store.C(req.Collection).Remove(req.Filter)
	if err != nil {
		return fmt.Errorf("cluster: remove %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.CountResponse{N: c, Gen: n.store.ReplGen()})
}

func (n *Node) handleAggregate(w http.ResponseWriter, r *http.Request) error {
	var req wire.AggregateRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	docs, err := n.store.C(req.Collection).Aggregate(req.Pipeline)
	if err != nil {
		return fmt.Errorf("cluster: aggregate %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.NewDocsResponse(docs))
}

func (n *Node) handleDistinct(w http.ResponseWriter, r *http.Request) error {
	var req wire.DistinctRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	vals, err := n.store.C(req.Collection).Distinct(req.Path, req.Filter)
	if err != nil {
		return fmt.Errorf("cluster: distinct %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.DistinctResponse{Values: vals})
}

func (n *Node) handleMapReduce(w http.ResponseWriter, r *http.Request) error {
	var req wire.MapReduceRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	job, ok := LookupJob(req.Job)
	if !ok {
		return badRequest("cluster: unknown mapreduce job %q", req.Job)
	}
	docs, err := n.store.C(req.Collection).MapReduce(req.Filter, job.Map, job.Reduce)
	if err != nil {
		return fmt.Errorf("cluster: mapreduce %s: %w", req.Collection, err)
	}
	return writeJSON(w, wire.NewDocsResponse(docs))
}

func (n *Node) handleEnsureIndex(w http.ResponseWriter, r *http.Request) error {
	var req wire.EnsureIndexRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	n.store.C(req.Collection).EnsureIndex(req.Paths...)
	return writeJSON(w, wire.OKResponse{OK: true})
}

func (n *Node) handleExplain(w http.ResponseWriter, r *http.Request) error {
	var req wire.ExplainRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	plan, err := n.store.C(req.Collection).Explain(req.Filter, req.Opts.ToFindOpts())
	if err != nil {
		return badRequest("cluster: explain %s: %v", req.Collection, err)
	}
	return writeJSON(w, wire.DocResponse{Doc: plan})
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	docs := 0
	for _, name := range n.store.Collections() {
		c, _ := n.store.C(name).Count(nil)
		docs += c
	}
	writeJSON(w, wire.HealthResponse{
		OK:          true,
		NodeID:      n.id,
		Collections: len(n.store.Collections()),
		Documents:   docs,
		AppliedGen:  n.store.ReplGen(),
	})
}

// readLogLines splits a repl line stream (newline-joined framed journal
// lines) into its lines, dropping empties.
func readLogLines(r io.Reader) ([][]byte, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cluster: read log stream: %w", err)
	}
	var lines [][]byte
	for _, ln := range bytes.Split(body, []byte("\n")) {
		if len(ln) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines, nil
}

// writeLogLines streams framed lines with the node's head generation in
// the response header.
func writeLogLines(w http.ResponseWriter, lines [][]byte, head uint64) error {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set(wire.HeaderReplHead, strconv.FormatUint(head, 10))
	for _, ln := range lines {
		if _, err := w.Write(ln); err != nil {
			return fmt.Errorf("cluster: write log stream: %w", err)
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return fmt.Errorf("cluster: write log stream: %w", err)
		}
	}
	return nil
}

// handleReplPull serves journal entries past the requested generation.
// A generation that has rotated out of the log answers 410 Gone; the
// puller falls back to snapshot + reset.
func (n *Node) handleReplPull(w http.ResponseWriter, r *http.Request) error {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		return badRequest("cluster: repl pull: bad from: %v", err)
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if limit, err = strconv.Atoi(ls); err != nil {
			return badRequest("cluster: repl pull: bad limit: %v", err)
		}
	}
	lines, head, err := n.store.ReplTail(from, limit)
	if errors.Is(err, datastore.ErrReplGap) {
		n.reg.Counter("node_repl_gap_total").Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(wire.HeaderReplHead, strconv.FormatUint(head, 10))
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(wire.ErrorResponse{Error: err.Error()})
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: repl pull: %w", err)
	}
	n.reg.Counter("node_repl_pulls_total").Inc()
	n.reg.Counter("node_repl_entries_served_total").Add(uint64(len(lines)))
	return writeLogLines(w, lines, head)
}

// handleReplApply ingests a batch of shipped log lines. With ?reset=1 the
// batch is a full snapshot replacing all local state, fast-forwarded to
// ?upto=<gen>; otherwise entries append through the normal apply path.
func (n *Node) handleReplApply(w http.ResponseWriter, r *http.Request) error {
	lines, err := readLogLines(r.Body)
	if err != nil {
		return badRequest("%v", err)
	}
	if r.URL.Query().Get("reset") == "1" {
		upto, perr := strconv.ParseUint(r.URL.Query().Get("upto"), 10, 64)
		if perr != nil {
			return badRequest("cluster: repl apply: bad upto: %v", perr)
		}
		if rerr := n.store.ReplReset(lines, upto); rerr != nil {
			return fmt.Errorf("cluster: repl reset: %w", rerr)
		}
		n.reg.Counter("node_repl_resets_total").Inc()
		return writeJSON(w, wire.ReplApplyResponse{Applied: len(lines), Gen: upto})
	}
	applied, gen, torn, err := n.store.ApplyReplEntries(lines)
	if err != nil {
		return fmt.Errorf("cluster: repl apply: %w", err)
	}
	n.reg.Counter("node_repl_entries_applied_total").Add(uint64(applied))
	if torn {
		n.reg.Counter("node_repl_torn_batches_total").Inc()
	}
	return writeJSON(w, wire.ReplApplyResponse{Applied: applied, Gen: gen, Torn: torn})
}

// handleReplSnapshot streams the node's full state as framed insert
// lines (the rotation fallback for pulls answered 410).
func (n *Node) handleReplSnapshot(w http.ResponseWriter, r *http.Request) error {
	lines, head, err := n.store.ReplSnapshotEntries()
	if err != nil {
		return fmt.Errorf("cluster: repl snapshot: %w", err)
	}
	n.reg.Counter("node_repl_snapshots_served_total").Inc()
	return writeLogLines(w, lines, head)
}
