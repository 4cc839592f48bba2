package ccam

import "context"

// This file is the public contract shared by CCAM stores and the
// paper's baseline file organizations: Open/OpenWith and NewBaseline
// both hand back a *Store, so every access method exposes the same
// query, batch-query, transactional-mutation and admin surface and
// comparison code (cmd/ccam-bench, the paper's experiments, the
// ccam-serve daemon) never branches on the concrete method.
//
// The contract is split into three composable interfaces — Querier,
// Mutator, Admin — so a consumer can ask for exactly the capability it
// needs: a read-only query service takes a Querier, a replication sink
// takes a Mutator, an operations dashboard takes an Admin. AccessMethod
// embeds all three and is what *Store implements in full.
//
// Every query method is context-first and singly named: Find(ctx, id)
// is the one canonical spelling (the pre-redesign Find(id)/FindCtx(ctx,
// id) pairs collapsed into it). Callers without a context in hand can
// use the thin ctx-less convenience wrappers on Plain (see
// Store.Plain), which delegate with context.Background().

// Querier is the read-only query surface: the paper's operations
// (Find, Get-A-successor, Get-successors, route evaluation), the
// spatial range query and the batch forms. All methods take a leading
// context for cooperative cancellation and deadlines, are safe for
// concurrent use, and leave the stored contents untouched.
type Querier interface {
	// Find retrieves the record of a node.
	Find(ctx context.Context, id NodeID) (*Record, error)
	// GetASuccessor retrieves the record of succ, a successor of cur.
	// A successor on cur's page is a buffer-pool hit; it is read with
	// no pool request at all only inside GetSuccessors and
	// EvaluateRoute, which keep their page between hops.
	GetASuccessor(ctx context.Context, cur *Record, succ NodeID) (*Record, error)
	// GetSuccessors retrieves the records of all successors of a node.
	GetSuccessors(ctx context.Context, id NodeID) ([]*Record, error)
	// EvaluateRoute computes the aggregate property of a route.
	EvaluateRoute(ctx context.Context, route Route) (RouteAggregate, error)
	// RangeQuery returns all records whose positions lie inside rect,
	// via the secondary spatial index.
	RangeQuery(ctx context.Context, rect Rect) ([]*Record, error)
	// Has reports whether a node is stored, surfacing real failures
	// (an unbuilt store, an index error) as a non-nil error.
	Has(ctx context.Context, id NodeID) (bool, error)
	// FindBatch retrieves many records through a bounded worker pool.
	FindBatch(ctx context.Context, ids []NodeID) ([]*Record, error)
	// EvaluateRoutes evaluates many routes through a bounded worker
	// pool.
	EvaluateRoutes(ctx context.Context, routes []Route) ([]RouteAggregate, error)
	// Query parses, plans and executes one CCAM-QL statement (FIND,
	// WINDOW, NEIGHBORS, ROUTE, PATH, optionally EXPLAIN-prefixed),
	// choosing the access path by predicted data-page accesses.
	Query(ctx context.Context, src string) (*Result, error)
}

// Mutator is the write surface. Apply is the canonical mutation entry
// point — an atomic, WAL-logged batch — and the single-operation
// methods are documented one-op batches over it. Build replaces the
// whole file contents (the paper's Create()).
type Mutator interface {
	// Build creates the file contents from a network (the paper's
	// Create()), replacing any previous contents.
	Build(g *Network) error
	// Apply commits a batch of mutations atomically.
	Apply(ctx context.Context, b *Batch) error
	// Insert adds a new node with its edges (a one-op batch).
	Insert(op *InsertOp, policy Policy) error
	// Delete removes a node and its incident edges (a one-op batch).
	Delete(id NodeID, policy Policy) error
	// InsertEdge adds a directed edge (a one-op batch).
	InsertEdge(from, to NodeID, cost float32, policy Policy) error
	// DeleteEdge removes a directed edge (a one-op batch).
	DeleteEdge(from, to NodeID, policy Policy) error
	// SetEdgeCost updates an edge's cost in place (a one-op batch).
	SetEdgeCost(from, to NodeID, cost float32) error
}

// Admin is the operational surface: identification, size accounting,
// placement introspection, I/O metering and lifecycle.
type Admin interface {
	// Name identifies the method in reports ("ccam-s", "dfs-am", ...).
	Name() string
	// Len returns the number of stored node records.
	Len() int
	// NumPages returns the number of data pages in the file.
	NumPages() int
	// Placement returns the node → data page assignment.
	Placement() Placement
	// IO returns the physical data-page I/O counters.
	IO() IOStats
	// ResetIO empties the buffer pool and zeroes the I/O counters.
	ResetIO() error
	// Flush persists buffered state (a checkpoint, with a WAL).
	Flush() error
	// Close releases the store.
	Close() error
}

// AccessMethod is the full contract: queries, mutations and admin in
// one bundle. The interface covers the shared core; *Store carries
// additional CCAM-specific conveniences (graph searches, spatial
// nearest-neighbor, metrics) beyond it.
type AccessMethod interface {
	Querier
	Mutator
	Admin
}

// Every store — CCAM and the baselines — implements the shared
// contract, and each of its facets.
var (
	_ AccessMethod = (*Store)(nil)
	_ Querier      = (*Store)(nil)
	_ Mutator      = (*Store)(nil)
	_ Admin        = (*Store)(nil)
)
