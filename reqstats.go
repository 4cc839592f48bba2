package ccam

import "context"

// ReqStats is the per-request resource account: what one network
// request cost in the units of the paper's cost model (data-page and
// index-page accesses, CCAM §4) plus the modern overheads layered on
// top of it (buffer pool hits/misses, WAL group-commit wait). The
// server allocates one per request, carries it through the store via
// the context, and echoes it back to the client in the response
// trailer, so a slow request explains itself without a server-side
// log dive.
//
// What is added is each operation's own account — counted by the steps
// that did the operation's work, not read off counters other requests
// share — so the figures are exact whatever else the store is doing: a
// Find is one index page and one buffer hit or miss beside any number
// of readers and a writer.
//
// A ReqStats is owned by a single request goroutine; the facade adds an
// operation's account to it synchronously when the operation ends, so
// no locking is needed.
type ReqStats struct {
	// DataReads / DataWrites count data-page accesses — the quantity
	// the paper's evaluation minimizes by connectivity clustering. A read
	// is a buffer miss (DataReads == BufferMisses: the pool reads a page
	// exactly when it misses); a write is a dirty page written back for
	// this request — by an eviction its page requests forced or, with a
	// WAL, by a checkpoint taken inside its transaction.
	DataReads  int64 `json:"data_reads"`
	DataWrites int64 `json:"data_writes,omitempty"`
	// IndexPages counts node-index lookups — one per node an operation
	// resolves to its data page, reads and mutations alike (paper §4
	// charges index accesses separately from data pages; the index is
	// memory resident).
	IndexPages int64 `json:"index_pages"`
	// BufferHits / BufferMisses count the buffer pool's answers to this
	// request's page fetches; only misses reach the disk. An operation
	// fetches a page once per visit, not once per record: hops that
	// stay on the page it holds are neither. A page image handed out from
	// a version chain — the request's snapshot predates a writer's change
	// to the page — is a hit: the pool answered and nothing was read, so
	// the count does not depend on whether a writer got there first. So
	// is a freshly allocated page.
	BufferHits   int64 `json:"buffer_hits"`
	BufferMisses int64 `json:"buffer_misses"`
	// WALWaitNs is the time this request spent waiting for its batch's
	// WAL commit record to become durable, including group-formation
	// wait (attributed to the request, not the fsync leader — see
	// DESIGN.md).
	WALWaitNs int64 `json:"wal_wait_ns,omitempty"`
	// Shed marks a request refused by admission control; all other
	// fields are zero on a shed request.
	Shed bool `json:"shed,omitempty"`
	// Ops counts the facade operations that contributed to this
	// account (batch endpoints contribute one per request, not one per
	// element).
	Ops int64 `json:"ops,omitempty"`
}

// Add accumulates other into s.
func (s *ReqStats) Add(other ReqStats) {
	s.DataReads += other.DataReads
	s.DataWrites += other.DataWrites
	s.IndexPages += other.IndexPages
	s.BufferHits += other.BufferHits
	s.BufferMisses += other.BufferMisses
	s.WALWaitNs += other.WALWaitNs
	s.Shed = s.Shed || other.Shed
	s.Ops += other.Ops
}

// reqStatsKey carries a *ReqStats through a context.Context.
type reqStatsKey struct{}

// WithReqStats returns a context carrying rs, so store operations run
// with that context charge their page/buffer/WAL costs to it. A nil
// rs returns ctx unchanged.
func WithReqStats(ctx context.Context, rs *ReqStats) context.Context {
	if rs == nil {
		return ctx
	}
	return context.WithValue(ctx, reqStatsKey{}, rs)
}

// ReqStatsFrom extracts the per-request account carried by ctx (nil
// when none). The instrumented facade path calls this once per
// operation; the disabled path (metrics off) never does.
func ReqStatsFrom(ctx context.Context) *ReqStats {
	rs, _ := ctx.Value(reqStatsKey{}).(*ReqStats)
	return rs
}
