package ccam

import "context"

// Plain is the ctx-less convenience view over a Store: every wrapper
// delegates to the canonical context-first query with
// context.Background(). It exists for callers without a context in
// hand — quick scripts, tests, REPL-style exploration — so the
// canonical API can stay singly named and context-first without
// forcing ceremony on them:
//
//	rec, err := store.Plain().Find(1)
//
// Plain is a value; it is safe to copy and to use concurrently
// like the Store it wraps.
type Plain struct {
	s *Store
}

// Plain returns the store's ctx-less convenience view.
func (s *Store) Plain() Plain { return Plain{s: s} }

// Find retrieves the record of a node.
func (p Plain) Find(id NodeID) (*Record, error) {
	return p.s.Find(context.Background(), id)
}

// GetASuccessor retrieves the record of succ, a successor of cur.
func (p Plain) GetASuccessor(cur *Record, succ NodeID) (*Record, error) {
	return p.s.GetASuccessor(context.Background(), cur, succ)
}

// GetSuccessors retrieves the records of all successors of a node.
func (p Plain) GetSuccessors(id NodeID) ([]*Record, error) {
	return p.s.GetSuccessors(context.Background(), id)
}

// EvaluateRoute computes the aggregate property of a route.
func (p Plain) EvaluateRoute(route Route) (RouteAggregate, error) {
	return p.s.EvaluateRoute(context.Background(), route)
}

// RangeQuery returns all records whose positions lie inside rect.
func (p Plain) RangeQuery(rect Rect) ([]*Record, error) {
	return p.s.RangeQuery(context.Background(), rect)
}

// Has reports whether a node is stored.
func (p Plain) Has(id NodeID) (bool, error) {
	return p.s.Has(context.Background(), id)
}
