// Package gridfile implements the Grid File of Nievergelt, Hinterberger
// and Sevcik — the spatial-proximity baseline of the paper's
// experiments. Two linear scales partition the plane into a grid of
// cells; a directory maps each cell to a data bucket (one disk page),
// and several cells may share a bucket as long as the bucket's region
// stays rectangular. Bucket overflow splits the bucket, extending a
// linear scale when the bucket spans a single cell; the directory is
// treated as memory resident, matching how the paper treats index
// structures.
package gridfile

import (
	"errors"
	"fmt"
	"sort"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// Errors returned by grid file operations.
var (
	ErrUnsplittable = errors.New("gridfile: bucket cannot be split (identical coordinates)")
)

// bucket is one data page together with its rectangular cell region
// [x0,x1) × [y0,y1) in directory cell coordinates.
type bucket struct {
	pid            storage.PageID
	x0, x1, y0, y1 int
}

// Config parameterizes a grid file.
type Config struct {
	// PageSize is the disk block size in bytes.
	PageSize int
	// PoolPages is the buffer pool capacity (default 32).
	PoolPages int
	// Store optionally supplies the data page store.
	Store storage.Store
}

// Method is a grid file over the shared data file. It implements
// netfile.AccessMethod.
type Method struct {
	cfg    Config
	f      *netfile.File
	bounds geom.Rect
	// xScale and yScale hold the interior split coordinates, sorted.
	// With k splits there are k+1 cells on that axis.
	xScale, yScale []float64
	// dir maps cell (i,j) -> bucket; dir[i][j], i indexes x cells.
	dir [][]*bucket
	// byPage finds the bucket owning a data page.
	byPage map[storage.PageID]*bucket
}

var _ netfile.AccessMethod = (*Method)(nil)

// New returns an unbuilt grid file.
func New(cfg Config) (*Method, error) {
	if cfg.PageSize < 128 {
		return nil, fmt.Errorf("gridfile: page size %d too small", cfg.PageSize)
	}
	return &Method{cfg: cfg, byPage: make(map[storage.PageID]*bucket)}, nil
}

// Name implements netfile.AccessMethod.
func (m *Method) Name() string { return "grid-file" }

// File implements netfile.AccessMethod.
func (m *Method) File() *netfile.File { return m.f }

// NumBuckets returns the number of data buckets.
func (m *Method) NumBuckets() int { return len(m.byPage) }

// GridShape returns the directory dimensions (x cells, y cells).
func (m *Method) GridShape() (int, int) { return len(m.xScale) + 1, len(m.yScale) + 1 }

// Build implements netfile.AccessMethod: records are inserted one by
// one through the grid placement logic (their succ/pred lists are
// already complete, so no neighbor updates are needed).
func (m *Method) Build(g *graph.Network) error {
	f, err := netfile.Create(netfile.Options{
		PageSize:  m.cfg.PageSize,
		PoolPages: m.cfg.PoolPages,
		Bounds:    g.Bounds(),
		Store:     m.cfg.Store,
	})
	if err != nil {
		return err
	}
	m.f = f
	m.bounds = g.Bounds()
	pid, err := m.f.AllocatePage()
	if err != nil {
		return err
	}
	root := &bucket{pid: pid, x0: 0, x1: 1, y0: 0, y1: 1}
	m.dir = [][]*bucket{{root}}
	m.byPage[pid] = root

	for _, id := range g.NodeIDs() {
		rec, err := netfile.RecordFromNode(g, id)
		if err != nil {
			return err
		}
		if err := m.place(rec); err != nil {
			return fmt.Errorf("gridfile: build at node %d: %w", id, err)
		}
	}
	m.f.FillPAG(g)
	return m.f.Flush()
}

// cellIndex returns the directory cell containing p.
func (m *Method) cellIndex(p geom.Point) (int, int) {
	i := sort.SearchFloat64s(m.xScale, p.X)
	// SearchFloat64s returns the first index with scale >= p.X; points
	// exactly on a boundary belong to the right cell, which matches
	// the half-open region convention.
	if i < len(m.xScale) && m.xScale[i] == p.X {
		i++
	}
	j := sort.SearchFloat64s(m.yScale, p.Y)
	if j < len(m.yScale) && m.yScale[j] == p.Y {
		j++
	}
	return i, j
}

// bucketFor returns the bucket owning point p.
func (m *Method) bucketFor(p geom.Point) *bucket {
	i, j := m.cellIndex(p)
	return m.dir[i][j]
}

// place inserts rec into its spatial bucket, splitting on overflow.
func (m *Method) place(rec *netfile.Record) error {
	for attempt := 0; attempt < 64; attempt++ {
		b := m.bucketFor(rec.Pos)
		err := m.f.InsertRecordAt(rec, b.pid)
		if err == nil {
			return nil
		}
		if !errors.Is(err, storage.ErrPageFull) {
			return err
		}
		// Include the incoming record's position in the split decision:
		// a bucket holding a single fat record is otherwise
		// unsplittable.
		if err := m.splitBucket(b, rec); err != nil {
			return err
		}
	}
	return fmt.Errorf("gridfile: giving up splitting for record %d", rec.ID)
}

// splitBucket divides b in two. If b spans multiple cells on an axis,
// the directory is untouched and the cells are divided between b and a
// new bucket. Otherwise a new boundary is added to a linear scale (the
// directory grows a row or column) and then the two resulting cells are
// divided. Records are redistributed by position. An optional incoming
// record (not yet stored) contributes its position to the choice of
// split coordinate.
func (m *Method) splitBucket(b *bucket, incoming *netfile.Record) error {
	recs, err := m.f.RecordsOnPage(b.pid)
	if err != nil {
		return err
	}
	coordRecs := recs
	if incoming != nil {
		coordRecs = append(append([]*netfile.Record(nil), recs...), incoming)
	}
	// Choose split axis: prefer the axis where the bucket spans more
	// cells; when both span one cell, the axis with larger coordinate
	// spread among records.
	axisX := true
	switch {
	case b.x1-b.x0 > 1:
		axisX = true
	case b.y1-b.y0 > 1:
		axisX = false
	default:
		axisX = spreadX(coordRecs) >= spreadY(coordRecs)
		if err := m.addScaleSplit(b, axisX, coordRecs); err != nil {
			if !errors.Is(err, ErrUnsplittable) {
				return err
			}
			// Try the other axis.
			axisX = !axisX
			if err := m.addScaleSplit(b, axisX, coordRecs); err != nil {
				return err
			}
		}
	}
	// b now spans at least two cells on the chosen axis; divide them.
	newPid, err := m.f.AllocatePage()
	if err != nil {
		return err
	}
	nb := &bucket{pid: newPid}
	if axisX {
		mid := (b.x0 + b.x1) / 2
		*nb = bucket{pid: newPid, x0: mid, x1: b.x1, y0: b.y0, y1: b.y1}
		b.x1 = mid
	} else {
		mid := (b.y0 + b.y1) / 2
		*nb = bucket{pid: newPid, x0: b.x0, x1: b.x1, y0: mid, y1: b.y1}
		b.y1 = mid
	}
	m.byPage[newPid] = nb
	for i := nb.x0; i < nb.x1; i++ {
		for j := nb.y0; j < nb.y1; j++ {
			m.dir[i][j] = nb
		}
	}
	// Redistribute records of the old page by position.
	for _, rec := range recs {
		if m.bucketFor(rec.Pos) == nb {
			if err := m.f.MoveRecord(rec.ID, newPid); err != nil {
				return fmt.Errorf("gridfile: redistribute %d: %w", rec.ID, err)
			}
		}
	}
	return nil
}

// addScaleSplit inserts a new boundary through single-cell bucket b on
// the chosen axis at the median record coordinate, growing the
// directory by one row or column.
func (m *Method) addScaleSplit(b *bucket, axisX bool, recs []*netfile.Record) error {
	coords := make([]float64, 0, len(recs))
	for _, r := range recs {
		if axisX {
			coords = append(coords, r.Pos.X)
		} else {
			coords = append(coords, r.Pos.Y)
		}
	}
	sort.Float64s(coords)
	split := coords[len(coords)/2]
	if split == coords[0] {
		// Median equals minimum: a boundary at split would put
		// everything on one side. Try the max midpoint instead.
		if coords[len(coords)-1] == coords[0] {
			return fmt.Errorf("%w on axisX=%v", ErrUnsplittable, axisX)
		}
		split = (coords[0] + coords[len(coords)-1]) / 2
	}
	if axisX {
		cell := b.x0 // single-cell bucket
		m.xScale = insertSorted(m.xScale, split)
		// Grow the directory: duplicate column `cell`.
		newDir := make([][]*bucket, len(m.dir)+1)
		copy(newDir, m.dir[:cell+1])
		dup := make([]*bucket, len(m.dir[cell]))
		copy(dup, m.dir[cell])
		newDir[cell+1] = dup
		copy(newDir[cell+2:], m.dir[cell+1:])
		m.dir = newDir
		// Shift every bucket's x range to account for the new column.
		for _, bk := range m.byPage {
			if bk.x0 > cell {
				bk.x0++
			}
			if bk.x1 > cell {
				bk.x1++
			}
		}
		// b itself covered the split cell; it now spans two columns.
		// (bk.x1 > cell already bumped b.x1 from cell+1 to cell+2.)
	} else {
		cell := b.y0
		m.yScale = insertSorted(m.yScale, split)
		for i := range m.dir {
			col := m.dir[i]
			newCol := make([]*bucket, len(col)+1)
			copy(newCol, col[:cell+1])
			newCol[cell+1] = col[cell]
			copy(newCol[cell+2:], col[cell+1:])
			m.dir[i] = newCol
		}
		for _, bk := range m.byPage {
			if bk.y0 > cell {
				bk.y0++
			}
			if bk.y1 > cell {
				bk.y1++
			}
		}
	}
	return nil
}

func insertSorted(s []float64, v float64) []float64 {
	i := sort.SearchFloat64s(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func spreadX(recs []*netfile.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	lo, hi := recs[0].Pos.X, recs[0].Pos.X
	for _, r := range recs[1:] {
		if r.Pos.X < lo {
			lo = r.Pos.X
		}
		if r.Pos.X > hi {
			hi = r.Pos.X
		}
	}
	return hi - lo
}

func spreadY(recs []*netfile.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	lo, hi := recs[0].Pos.Y, recs[0].Pos.Y
	for _, r := range recs[1:] {
		if r.Pos.Y < lo {
			lo = r.Pos.Y
		}
		if r.Pos.Y > hi {
			hi = r.Pos.Y
		}
	}
	return hi - lo
}

// Insert implements netfile.AccessMethod: the record is placed by
// spatial position, then neighbor lists are updated; overflowing
// neighbor pages split through the grid machinery. The policy argument
// is ignored (grid files reorganize by bucket splitting only).
func (m *Method) Insert(op *netfile.InsertOp, _ netfile.Policy) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if m.f == nil {
		return errors.New("gridfile: insert before Build")
	}
	if err := m.place(op.Rec); err != nil {
		return err
	}
	return m.f.UpdateNeighborLinks(op, m.splitByPage)
}

// Delete implements netfile.AccessMethod. Bucket merging (the grid
// file's buddy-system deletion) is deliberately lazy: empty buckets
// whose region can be absorbed by a directory neighbor are merged,
// others remain (delayed reorganization).
func (m *Method) Delete(id graph.NodeID, _ netfile.Policy) error {
	if m.f == nil {
		return errors.New("gridfile: delete before Build")
	}
	pid, err := m.f.PageOf(id)
	if err != nil {
		return err
	}
	rec, err := m.f.DeleteRecord(id)
	if err != nil {
		return err
	}
	if err := m.f.RemoveNeighborLinks(rec); err != nil {
		return err
	}
	used, err := m.f.UsedBytesOn(pid)
	if err != nil {
		return err
	}
	if used == 0 {
		m.mergeEmptyBucket(pid)
	}
	return nil
}

// mergeEmptyBucket absorbs an empty bucket's region into an adjacent
// bucket when the union stays rectangular, freeing the page.
func (m *Method) mergeEmptyBucket(pid storage.PageID) {
	b, ok := m.byPage[pid]
	if !ok {
		return
	}
	for _, nb := range m.byPage {
		if nb == b {
			continue
		}
		merged, ok := unionRect(b, nb)
		if !ok {
			continue
		}
		nb.x0, nb.x1, nb.y0, nb.y1 = merged.x0, merged.x1, merged.y0, merged.y1
		for i := b.x0; i < b.x1; i++ {
			for j := b.y0; j < b.y1; j++ {
				m.dir[i][j] = nb
			}
		}
		delete(m.byPage, pid)
		m.f.FreePage(pid)
		return
	}
}

// unionRect returns the union of two bucket regions when it is a
// rectangle (the buckets are buddies).
func unionRect(a, b *bucket) (bucket, bool) {
	if a.y0 == b.y0 && a.y1 == b.y1 {
		if a.x1 == b.x0 {
			return bucket{x0: a.x0, x1: b.x1, y0: a.y0, y1: a.y1}, true
		}
		if b.x1 == a.x0 {
			return bucket{x0: b.x0, x1: a.x1, y0: a.y0, y1: a.y1}, true
		}
	}
	if a.x0 == b.x0 && a.x1 == b.x1 {
		if a.y1 == b.y0 {
			return bucket{x0: a.x0, x1: a.x1, y0: a.y0, y1: b.y1}, true
		}
		if b.y1 == a.y0 {
			return bucket{x0: a.x0, x1: a.x1, y0: b.y0, y1: a.y1}, true
		}
	}
	return bucket{}, false
}

// splitByPage splits the bucket owning page pid (overflow handler for
// neighbor-list growth).
func (m *Method) splitByPage(pid storage.PageID) error {
	b, ok := m.byPage[pid]
	if !ok {
		return fmt.Errorf("gridfile: page %d has no bucket", pid)
	}
	return m.splitBucket(b, nil)
}

// PointQuery returns the record at exactly p (nil if the bucket holds
// no node at that position). One bucket access, as the grid file
// promises.
func (m *Method) PointQuery(p geom.Point) (*netfile.Record, error) {
	b := m.bucketFor(p)
	recs, err := m.f.RecordsOnPage(b.pid)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.Pos == p {
			return r, nil
		}
	}
	return nil, nil
}

// RangeQuery returns all records with positions inside rect, touching
// only the buckets whose regions intersect the query.
func (m *Method) RangeQuery(rect geom.Rect) ([]*netfile.Record, error) {
	seen := map[storage.PageID]bool{}
	var out []*netfile.Record
	for _, b := range m.bucketsIntersecting(rect) {
		if seen[b.pid] {
			continue
		}
		seen[b.pid] = true
		recs, err := m.f.RecordsOnPage(b.pid)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if rect.Contains(r.Pos) {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// bucketsIntersecting returns the buckets whose cell regions intersect
// rect.
func (m *Method) bucketsIntersecting(rect geom.Rect) []*bucket {
	i0, j0 := m.cellIndex(rect.Min)
	i1, j1 := m.cellIndex(rect.Max)
	seen := map[*bucket]bool{}
	var out []*bucket
	for i := i0; i <= i1 && i < len(m.dir); i++ {
		for j := j0; j <= j1 && j < len(m.dir[i]); j++ {
			b := m.dir[i][j]
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// Validate checks grid file invariants: the directory tiles the plane
// with the registered buckets and every record lies inside its bucket's
// region. Intended for tests.
func (m *Method) Validate() error {
	nx, ny := m.GridShape()
	if len(m.dir) != nx {
		return fmt.Errorf("gridfile: directory has %d columns, scales imply %d", len(m.dir), nx)
	}
	for i := range m.dir {
		if len(m.dir[i]) != ny {
			return fmt.Errorf("gridfile: column %d has %d cells, scales imply %d", i, len(m.dir[i]), ny)
		}
		for j, b := range m.dir[i] {
			if b == nil {
				return fmt.Errorf("gridfile: cell (%d,%d) has no bucket", i, j)
			}
			if i < b.x0 || i >= b.x1 || j < b.y0 || j >= b.y1 {
				return fmt.Errorf("gridfile: cell (%d,%d) outside its bucket region [%d,%d)x[%d,%d)",
					i, j, b.x0, b.x1, b.y0, b.y1)
			}
			if m.byPage[b.pid] != b {
				return fmt.Errorf("gridfile: bucket of page %d not registered", b.pid)
			}
		}
	}
	for pid, b := range m.byPage {
		recs, err := m.f.RecordsOnPage(pid)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if got := m.bucketFor(r.Pos); got != b {
				return fmt.Errorf("gridfile: record %d stored in page %d but position maps to page %d",
					r.ID, pid, got.pid)
			}
		}
	}
	return nil
}

// InsertEdge implements netfile.AccessMethod: the records of both
// endpoints are updated in place; overflow splits the owning bucket.
func (m *Method) InsertEdge(from, to graph.NodeID, cost float32, _ netfile.Policy) error {
	if m.f == nil {
		return errors.New("gridfile: insert edge before Build")
	}
	return m.f.AddEdgeRecords(from, to, cost, m.splitByPage)
}

// DeleteEdge implements netfile.AccessMethod.
func (m *Method) DeleteEdge(from, to graph.NodeID, _ netfile.Policy) error {
	if m.f == nil {
		return errors.New("gridfile: delete edge before Build")
	}
	return m.f.RemoveEdgeRecords(from, to)
}
