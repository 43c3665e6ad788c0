// Package wire defines the JSON codecs of the cluster's internal node
// transport: the request/response shapes a router exchanges with shard
// nodes over HTTP. The protocol deliberately mirrors the datastore's
// primitive surface (insert/find/count/update/remove/aggregate/distinct/
// mapreduce) rather than the public Materials API, so the Fig. 4 URI
// anatomy stays a router-only concern and nodes remain dumb storage.
//
// Number fidelity matters on this boundary: documents round-trip through
// JSON, so decoding always canonicalizes numbers (integral values become
// int64, the rest float64) — the same canonicalization the datastore
// applies on insert. Every request (see Request) and every response that
// carries documents (DocsResponse, DocResponse, DistinctResponse)
// travels through the document codec in both directions: the encoder
// writes exactly the bytes encoding/json writes for the struct, and the
// decoder parses straight into normalized trees. The struct tags are
// the wire format's specification. Only the small control responses
// (write acks, health, repl apply, errors) still use encoding/json.
package wire

import (
	"encoding/json"
	"fmt"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// Version prefixes every transport path; bump on incompatible changes.
const Version = "/internal/v1"

// Endpoint paths under Version. All ops are POST except Health (GET).
const (
	PathInsert      = "/insert"
	PathInsertMany  = "/insertmany"
	PathBulkWrite   = "/bulkwrite"
	PathFind        = "/find"
	PathCount       = "/count"
	PathGet         = "/get"
	PathUpdate      = "/update"
	PathRemove      = "/remove"
	PathAggregate   = "/aggregate"
	PathDistinct    = "/distinct"
	PathMapReduce   = "/mapreduce"
	PathEnsureIndex = "/ensureindex"
	PathExplain     = "/explain"
	PathHealth      = "/health"

	// Replication-log endpoints. Pull and Snapshot stream framed journal
	// lines (text/plain, one "%08x <json>" line per record) with the
	// serving node's head generation in HeaderReplHead; Apply accepts the
	// same line stream and reports what was applied. A pull whose `from`
	// generation has rotated out of the log answers 410 Gone — the caller
	// falls back to Snapshot + Apply?reset=1.
	PathReplPull     = "/repl/pull"
	PathReplApply    = "/repl/apply"
	PathReplSnapshot = "/repl/snapshot"
)

// HeaderReplHead carries the serving node's current replication head
// generation on pull/snapshot responses.
const HeaderReplHead = "X-Repl-Head"

// FindOpts is the wire form of datastore.FindOpts.
type FindOpts struct {
	Projection document.D `json:"projection,omitempty"`
	Sort       []string   `json:"sort,omitempty"`
	Skip       int        `json:"skip,omitempty"`
	Limit      int        `json:"limit,omitempty"`
	// MaxStaleness (generations) permits follower reads; routing-only,
	// but it rides the wire form so it lands in result-cache keys.
	MaxStaleness int `json:"max_staleness,omitempty"`
	// Hint forwards the router's chosen-index hint so every shard runs
	// the same plan (see datastore.FindOpts.Hint).
	Hint string `json:"hint,omitempty"`
}

// FromFindOpts converts store options to their wire form (nil passes
// through).
func FromFindOpts(o *datastore.FindOpts) *FindOpts {
	if o == nil {
		return nil
	}
	return &FindOpts{
		Projection:   o.Projection,
		Sort:         o.Sort,
		Skip:         o.Skip,
		Limit:        o.Limit,
		MaxStaleness: o.MaxStaleness,
		Hint:         o.Hint,
	}
}

// ToFindOpts converts decoded wire options back to store options (the
// projection is already normalized by the decoder).
func (o *FindOpts) ToFindOpts() *datastore.FindOpts {
	if o == nil {
		return nil
	}
	return &datastore.FindOpts{
		Projection:   o.Projection,
		Sort:         o.Sort,
		Skip:         o.Skip,
		Limit:        o.Limit,
		MaxStaleness: o.MaxStaleness,
		Hint:         o.Hint,
	}
}

// InsertRequest writes one document to a node.
type InsertRequest struct {
	Collection string     `json:"collection"`
	Doc        document.D `json:"doc"`
}

// InsertResponse reports the stored id and the node's resulting
// replication generation (the router's staleness bookkeeping piggybacks
// on write acks).
type InsertResponse struct {
	ID  string `json:"id"`
	Gen uint64 `json:"gen,omitempty"`
}

// InsertManyRequest writes a batch of documents to a node in one call
// (a per-shard sub-batch of a routed InsertMany). The node applies it
// through the datastore's single-lock batch path, so the whole
// sub-batch rides one group-commit fsync.
type InsertManyRequest struct {
	Collection string       `json:"collection"`
	Docs       []document.D `json:"docs"`
}

// InsertManyResponse reports the assigned ids (in input order) and the
// node's resulting replication generation.
type InsertManyResponse struct {
	IDs []string `json:"ids"`
	Gen uint64   `json:"gen,omitempty"`
}

// BulkOp is the wire form of datastore.BulkOp (same fields, so the two
// convert into each other directly).
type BulkOp struct {
	Op     string     `json:"op"`
	Doc    document.D `json:"doc,omitempty"`
	Filter document.D `json:"filter,omitempty"`
	Update document.D `json:"update,omitempty"`
}

// ToBulkOps converts decoded wire bulk ops back to datastore ops.
func (r BulkWriteRequest) ToBulkOps() []datastore.BulkOp {
	out := make([]datastore.BulkOp, len(r.Ops))
	for i, op := range r.Ops {
		out[i] = datastore.BulkOp(op)
	}
	return out
}

// BulkWriteRequest applies a mixed insert/update/delete batch on a node
// (a per-shard sub-batch of a routed BulkWrite).
type BulkWriteRequest struct {
	Collection string   `json:"collection"`
	Ops        []BulkOp `json:"ops"`
}

// BulkOpResult is the wire form of one op's outcome; Error is set on
// per-op failure (the sub-batch itself still succeeds).
type BulkOpResult struct {
	ID       string `json:"id,omitempty"`
	Matched  int    `json:"matched,omitempty"`
	Modified int    `json:"modified,omitempty"`
	Removed  int    `json:"removed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// BulkWriteResponse reports a sub-batch's totals, per-op outcomes (in
// input order) and the node's resulting replication generation.
type BulkWriteResponse struct {
	Inserted int            `json:"inserted"`
	Matched  int            `json:"matched"`
	Modified int            `json:"modified"`
	Removed  int            `json:"removed"`
	PerOp    []BulkOpResult `json:"per_op"`
	Gen      uint64         `json:"gen,omitempty"`
}

// FromBulkResult converts a datastore bulk outcome to its wire form.
func FromBulkResult(r datastore.BulkResult, gen uint64) BulkWriteResponse {
	resp := BulkWriteResponse{
		Inserted: r.Inserted,
		Matched:  r.Matched,
		Modified: r.Modified,
		Removed:  r.Removed,
		PerOp:    make([]BulkOpResult, len(r.PerOp)),
		Gen:      gen,
	}
	for i, op := range r.PerOp {
		resp.PerOp[i] = BulkOpResult{ID: op.ID, Matched: op.Matched, Modified: op.Modified, Removed: op.Removed, Error: op.Error}
	}
	return resp
}

// FindRequest runs a filtered read on a node.
type FindRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
	Opts       *FindOpts  `json:"opts,omitempty"`
}

// DocsResponse carries a result set. Decoded documents are normalized
// and shared read-only: callers Copy() before they mutate.
type DocsResponse struct {
	Docs []document.D `json:"docs"`
}

// NewDocsResponse wraps a result set for the wire. A nil set goes out as
// [] rather than null.
func NewDocsResponse(docs []document.D) DocsResponse {
	if docs == nil {
		docs = []document.D{}
	}
	return DocsResponse{Docs: docs}
}

// AppendJSON appends the response's JSON encoding through the document
// codec (the bytes encoding/json would produce).
func (r DocsResponse) AppendJSON(dst []byte) ([]byte, error) {
	return appendField(dst, "docs", r.Docs, false)
}

func (r *DocsResponse) decodeJSON(b []byte) error {
	v, err := decodeField(b, "docs")
	if err != nil || v == nil {
		return err
	}
	rows, ok := v.([]any)
	if !ok {
		return fmt.Errorf("wire: decode: docs is %T, not an array", v)
	}
	r.Docs = make([]document.D, len(rows))
	for i, row := range rows {
		d, ok := row.(map[string]any)
		if !ok {
			return fmt.Errorf("wire: decode: docs[%d] is %T, not an object", i, row)
		}
		r.Docs[i] = d
	}
	return nil
}

// appendField writes {"<name>":<v>} plus the newline json.Encoder adds;
// omitEmpty leaves an empty document out, as the omitempty tag does.
func appendField(dst []byte, name string, v any, omitEmpty bool) ([]byte, error) {
	dst = append(dst, '{')
	if d, isDoc := v.(document.D); !omitEmpty || !isDoc || len(d) > 0 {
		dst = append(dst, '"')
		dst = append(dst, name...)
		dst = append(dst, `":`...)
		var err error
		if dst, err = document.AppendJSON(dst, v); err != nil {
			return nil, fmt.Errorf("wire: encode %s: %w", name, err)
		}
	}
	return append(dst, '}', '\n'), nil
}

// decodeField parses a one-field response object and returns that
// field's value (nil when absent).
func decodeField(b []byte, name string) (any, error) {
	top, err := document.FromJSON(b)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return top[name], nil
}

// CountRequest counts matching documents.
type CountRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
}

// CountResponse reports a count (also used for Remove, where Gen
// piggybacks the node's post-write replication generation).
type CountResponse struct {
	N   int    `json:"n"`
	Gen uint64 `json:"gen,omitempty"`
}

// GetRequest fetches one document by id.
type GetRequest struct {
	Collection string `json:"collection"`
	ID         string `json:"id"`
}

// DocResponse carries one document (empty Doc = not found, with HTTP 404).
type DocResponse struct {
	Doc document.D `json:"doc,omitempty"`
}

// AppendJSON appends the response's JSON encoding through the document
// codec.
func (r DocResponse) AppendJSON(dst []byte) ([]byte, error) {
	return appendField(dst, "doc", r.Doc, true)
}

func (r *DocResponse) decodeJSON(b []byte) error {
	v, err := decodeField(b, "doc")
	if err != nil || v == nil {
		return err
	}
	d, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("wire: decode: doc is %T, not an object", v)
	}
	r.Doc = d
	return nil
}

// UpdateRequest applies an update on a node.
type UpdateRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
	Update     document.D `json:"update"`
	Many       bool       `json:"many"`
}

// UpdateResponse reports what the update did, plus the node's resulting
// replication generation.
type UpdateResponse struct {
	Matched  int    `json:"matched"`
	Modified int    `json:"modified"`
	Gen      uint64 `json:"gen,omitempty"`
}

// RemoveRequest deletes matching documents.
type RemoveRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
}

// AggregateRequest runs a (pre-sanitized) pipeline on a node.
type AggregateRequest struct {
	Collection string       `json:"collection"`
	Pipeline   []document.D `json:"pipeline"`
}

// DistinctRequest lists distinct values of a path.
type DistinctRequest struct {
	Collection string     `json:"collection"`
	Path       string     `json:"path"`
	Filter     document.D `json:"filter,omitempty"`
}

// DistinctResponse carries the distinct values.
type DistinctResponse struct {
	Values []any `json:"values"`
}

// AppendJSON appends the response's JSON encoding through the document
// codec.
func (r DistinctResponse) AppendJSON(dst []byte) ([]byte, error) {
	return appendField(dst, "values", r.Values, false)
}

func (r *DistinctResponse) decodeJSON(b []byte) error {
	v, err := decodeField(b, "values")
	if err != nil || v == nil {
		return err
	}
	vals, ok := v.([]any)
	if !ok {
		return fmt.Errorf("wire: decode: values is %T, not an array", v)
	}
	r.Values = vals
	return nil
}

// MapReduceRequest runs a registered named MapReduce job on a node's
// shard of a collection. Jobs ship with the binary (Go functions cannot
// cross the wire); the name selects one from the shared registry.
type MapReduceRequest struct {
	Collection string     `json:"collection"`
	Job        string     `json:"job"`
	Filter     document.D `json:"filter,omitempty"`
}

// EnsureIndexRequest creates a secondary index over the given dotted
// paths on a node (one path: a single-field index; several: compound).
type EnsureIndexRequest struct {
	Collection string   `json:"collection"`
	Paths      []string `json:"paths,omitempty"`
}

// ExplainRequest asks a node for its planner's decision on a query.
type ExplainRequest struct {
	Collection string     `json:"collection"`
	Filter     document.D `json:"filter,omitempty"`
	Opts       *FindOpts  `json:"opts,omitempty"`
}

// OKResponse acknowledges a side-effect-only request.
type OKResponse struct {
	OK bool `json:"ok"`
}

// HealthResponse is a node's GET /internal/v1/health report. AppliedGen
// piggybacks the node's replication generation on every heartbeat so the
// router can route bounded-staleness reads without extra round-trips.
type HealthResponse struct {
	OK          bool   `json:"ok"`
	NodeID      string `json:"node_id"`
	Collections int    `json:"collections"`
	Documents   int    `json:"documents"`
	AppliedGen  uint64 `json:"applied_gen,omitempty"`
}

// ReplApplyResponse reports what a follower did with a shipped batch of
// log lines. Torn means a line failed its checksum mid-batch: the good
// prefix was applied and the shipper should re-pull from Gen.
type ReplApplyResponse struct {
	Applied int    `json:"applied"`
	Gen     uint64 `json:"gen"`
	Torn    bool   `json:"torn,omitempty"`
}

// ErrorResponse is the non-2xx body of every transport endpoint.
type ErrorResponse struct {
	Error string `json:"error"`
}

// codecDecoder is implemented by the document-carrying responses, which
// decode through the document codec into already-normalized documents.
type codecDecoder interface {
	decodeJSON(b []byte) error
}

// DecodeJSONBytes decodes a node response: document-carrying responses
// take the document codec, control responses encoding/json.
func DecodeJSONBytes(b []byte, v any) error {
	if c, ok := v.(codecDecoder); ok {
		return c.decodeJSON(b)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}
