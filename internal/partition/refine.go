package partition

// Refine improves an existing two-sided assignment in place instead of
// computing a new one: Fiduccia–Mattheyses move passes on the raw cut,
// started from side as given, with no side allowed to grow beyond
// capacity bytes (a side that starts above it can only shrink). It
// reports whether the cut strictly fell; when it did not, side is left
// exactly as it was. Passes repeat until one finds nothing — each
// lowers the cut, so there are finitely many — which makes the result a
// fixed point: refining it again returns false. There is no randomness:
// equal inputs give equal results.
//
// The objective is the cut, not the Cheng–Wei ratio: on a pair of pages
// that both exist already, cut/(|A|·|B|) also falls when bytes merely
// move toward balance, which would migrate records for no connectivity
// gain.
func Refine(w *Weighted, side []bool, capacity int) bool {
	lim := w.Total - capacity // a side keeps at least what the other cannot take
	improved := false
	sc := new(scratch)
	for runMovePass(w, side, lim, lim, minCut, false, sc) {
		improved = true
	}
	return improved
}
