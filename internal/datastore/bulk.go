package datastore

import (
	"fmt"
	"time"

	"matproj/internal/document"
	"matproj/internal/query"
)

// BulkOp is one operation in a BulkWrite batch.
type BulkOp struct {
	// Op selects the operation: "insert", "updateOne", "updateMany" or
	// "delete".
	Op string
	// Doc is the document to insert (insert only).
	Doc document.D
	// Filter selects documents for updateOne/updateMany/delete.
	Filter document.D
	// Update is the update body for updateOne/updateMany.
	Update document.D
}

// Bulk op names.
const (
	BulkInsert     = "insert"
	BulkUpdateOne  = "updateOne"
	BulkUpdateMany = "updateMany"
	BulkDelete     = "delete"
)

// BulkOpResult reports what one BulkWrite operation did. Error is a
// string rather than an error so per-op outcomes survive the wire
// protocol unchanged.
type BulkOpResult struct {
	ID       string // assigned/used _id (insert)
	Matched  int
	Modified int
	Removed  int
	Error    string // empty on success
}

// BulkResult aggregates a BulkWrite: totals plus one BulkOpResult per
// input op, in input order.
type BulkResult struct {
	Inserted int
	Matched  int
	Modified int
	Removed  int
	PerOp    []BulkOpResult
}

// bulkCompiled is one op's pre-lock compilation: filters, updates and
// insert documents are prepared (and insert ids minted) before the
// collection lock is taken, so the critical section does only the apply.
type bulkCompiled struct {
	op   string
	doc  document.D
	id   string
	flt  *query.Filter
	upd  *query.Update
	many bool
	err  error
}

// BulkWrite applies a mixed batch of inserts, updates and deletes under
// a single lock acquisition. Ops run in order and continue past per-op
// failures (reported in the per-op results, not the error return); all
// journal records the batch produced ride one group commit, so a batch
// costs one fsync regardless of size. The error return is reserved for
// batch-level failures — an empty batch or a failed commit.
func (c *Collection) BulkWrite(ops []BulkOp) (BulkResult, error) {
	start := time.Now()
	res := BulkResult{PerOp: make([]BulkOpResult, len(ops))}
	if len(ops) == 0 {
		return res, nil
	}
	compiled := make([]bulkCompiled, len(ops))
	for i, op := range ops {
		compiled[i] = c.compileBulkOp(op)
	}
	var p pendingCommit
	mutated := 0
	c.mu.Lock()
	for i := range compiled {
		co := &compiled[i]
		r := &res.PerOp[i]
		if co.err != nil {
			r.Error = co.err.Error()
			continue
		}
		switch co.op {
		case BulkInsert:
			if _, exists := c.docs[co.id]; exists {
				r.Error = fmt.Sprintf("%v: %q in %q", ErrDuplicateID, co.id, c.name)
				continue
			}
			c.insertLocked(co.id, co.doc)
			p = c.stageLocked(journalInsert, co.id, co.doc)
			r.ID = co.id
			res.Inserted++
			mutated++
		case BulkUpdateOne, BulkUpdateMany:
			for _, id := range c.scanLocked(co.flt) {
				r.Matched++
				cur := c.docs[id]
				next, err := c.applyUpdate(co.upd, cur)
				if err != nil {
					r.Error = err.Error()
					break
				}
				if nid, ok := next["_id"].(string); !ok || nid != id {
					r.Error = fmt.Sprintf("datastore: update may not change _id (collection %q)", c.name)
					break
				}
				if !document.Equal(cur, next) {
					c.replaceLocked(id, next)
					p = c.stageLocked(journalUpdate, id, next)
					r.Modified++
					mutated++
				}
				if !co.many {
					break
				}
			}
			res.Matched += r.Matched
			res.Modified += r.Modified
		case BulkDelete:
			for _, id := range c.scanLocked(co.flt) {
				c.removeLocked(id)
				p = c.stageLocked(journalRemove, id, nil)
				r.Removed++
				mutated++
			}
			res.Removed += r.Removed
		}
	}
	c.mu.Unlock()
	// One commit covers every record the batch staged (FIFO drain plus
	// the journal's sticky error make the last ticket's fsync vouch for
	// all earlier ones).
	if err := p.commit(); err != nil {
		return res, err
	}
	c.profile("bulkWrite", start, mutated)
	return res, nil
}

// compileBulkOp validates and compiles one op outside the lock.
func (c *Collection) compileBulkOp(op BulkOp) bulkCompiled {
	co := bulkCompiled{op: op.Op}
	switch op.Op {
	case BulkInsert:
		d := document.NormalizeDoc(op.Doc)
		if err := c.storable(d); err != nil {
			co.err = err
			return co
		}
		id, hasID := d["_id"].(string)
		if !hasID {
			if raw, ok := d["_id"]; ok {
				co.err = fmt.Errorf("datastore: _id must be a string, got %T", raw)
				return co
			}
			id = nextID()
			d["_id"] = id
		}
		co.doc, co.id = d, id
	case BulkUpdateOne, BulkUpdateMany:
		co.many = op.Op == BulkUpdateMany
		flt, err := query.Compile(op.Filter)
		if err != nil {
			co.err = err
			return co
		}
		upd, err := query.CompileUpdate(op.Update)
		if err != nil {
			co.err = err
			return co
		}
		co.flt, co.upd = flt, upd
	case BulkDelete:
		flt, err := query.Compile(op.Filter)
		if err != nil {
			co.err = err
			return co
		}
		co.flt = flt
	default:
		co.err = fmt.Errorf("datastore: unknown bulk op %q", op.Op)
	}
	return co
}
