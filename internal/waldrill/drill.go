// Package waldrill runs the write-ahead-log crash drill end to end:
// it builds a file-backed WAL store, applies a seeded stream of
// transactional batches under all four reorganization policies, with a
// Poke round offered after every fifth batch, then simulates a crash at
// every WAL record boundary (and, optionally, torn mid-record) and
// inside every commit's write (a commit's records reach the log in one
// write) by truncating a copy of the log there, reopens each copy, and
// asserts
// the recovered store holds exactly the committed prefix of the stream
// — no lost committed mutations, no phantom ones — that it passes
// Store.Verify (pages, indexes, lists and PAG summary agree), and that
// the recovered file and log pass the offline checks behind ccam-fsck.
//
// The drill is the repository's standing recovery proof: TestDrillSmall
// runs it in go test, and cmd/ccam-fsck -drill (the CI smoke step) runs
// this package with fixed seeds.
package waldrill

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"ccam"
	"ccam/internal/storage"
)

// Config parameterizes a drill run.
type Config struct {
	// Seed drives the road map, the batch stream and every random
	// choice; equal seeds give identical drills.
	Seed int64
	// Ops is the minimum number of mutation operations in the batch
	// stream (default 60; the stream stops at the first batch boundary
	// past it).
	Ops int
	// Rows, Cols shape the synthetic road map (default 8x8).
	Rows, Cols int
	// Torn adds a mid-record cut between every pair of adjacent record
	// boundaries, exercising the torn-tail truncation path on top of
	// the clean-boundary crashes.
	Torn bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Result summarizes a completed drill.
type Result struct {
	// Ops and Batches measure the committed mutation stream.
	Ops, Batches int
	// Reorganized counts the committed batches that moved a record they
	// did not insert.
	Reorganized int
	// Rounds counts the Poke rounds that committed: one commit record
	// each, sealing no mutation.
	Rounds int
	// Records is the number of WAL records the stream left in the log.
	Records int
	// CrashPoints is the number of distinct crash points verified.
	CrashPoints int
	// CRRDrift is the min, median and max over the crash points of the
	// recovered store's CRR minus the CRR the committed state had before
	// the crash. Replay re-executes the logged mutations first-order and
	// no reorganization is logged, so the placement the stream's
	// second-order, higher-order and lazy batches and its rounds chose
	// is not reproduced; the drill reports the drift and asserts
	// nothing.
	CRRDrift [3]float64
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// model mirrors the store's logical contents: node -> successor ->
// cost. The drill keeps it in lock-step with the applied batches and
// fingerprints it after each commit.
type model map[ccam.NodeID]map[ccam.NodeID]float32

// fingerprint hashes a store's logical contents in a canonical order,
// so two stores agree iff their node/successor/cost contents agree.
func fingerprint(s *ccam.Store) (uint64, error) {
	return fingerprintScan(s.Scan)
}

// fingerprintScan is fingerprint over any scannable read view — the
// live store or an LSN-pinned snapshot.
func fingerprintScan(scan func(func(*ccam.Record) bool) error) (uint64, error) {
	type succ struct {
		to   ccam.NodeID
		cost float32
	}
	lines := make(map[ccam.NodeID][]succ)
	ids := make([]ccam.NodeID, 0, 128)
	err := scan(func(rec *ccam.Record) bool {
		ss := make([]succ, len(rec.Succs))
		for i, sc := range rec.Succs {
			ss[i] = succ{sc.To, sc.Cost}
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].to < ss[j].to })
		lines[rec.ID] = ss
		ids = append(ids, rec.ID)
		return true
	})
	if err != nil {
		return 0, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%d:", id)
		for _, sc := range lines[id] {
			fmt.Fprintf(h, "%d=%g,", sc.to, sc.cost)
		}
		fmt.Fprint(h, ";")
	}
	return h.Sum64(), nil
}

// network is the model as a Network (nodes at the origin), to measure a
// placement's CRR against.
func (m model) network() (*ccam.Network, error) {
	g := ccam.NewNetwork()
	for id := range m {
		if err := g.AddNode(ccam.Node{ID: id}); err != nil {
			return nil, err
		}
	}
	for from, succs := range m {
		for to, cost := range succs {
			if err := g.AddEdge(ccam.Edge{From: from, To: to, Cost: float64(cost), Weight: 1}); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// sortedIDs returns the model's node ids in ascending order, for
// deterministic rng picks.
func (m model) sortedIDs() []ccam.NodeID {
	out := make([]ccam.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pickSucc returns the pick-th successor of from in ascending order.
func (m model) pickSucc(from ccam.NodeID, pick int) ccam.NodeID {
	tos := make([]ccam.NodeID, 0, len(m[from]))
	for to := range m[from] {
		tos = append(tos, to)
	}
	sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	return tos[pick]
}

// policies are the reorganization policies the stream draws each op's
// from, so crash points fall after splits, merges and reclusterings,
// not only after first-order edits.
var policies = []ccam.Policy{ccam.FirstOrder, ccam.SecondOrder, ccam.HigherOrder, ccam.Lazy}

func pickPolicy(rng *rand.Rand) ccam.Policy { return policies[rng.Intn(len(policies))] }

// movedOld reports whether a record placed before a batch sits on
// another page after it.
func movedOld(before, after ccam.Placement) bool {
	for id, pid := range before {
		if q, ok := after[id]; ok && q != pid {
			return true
		}
	}
	return false
}

// genBatch builds one valid batch of 1..3 ops against the model and
// applies its effects to the model.
func genBatch(rng *rand.Rand, m model, nextID *ccam.NodeID) (*ccam.Batch, int) {
	b := new(ccam.Batch)
	ops := 0
	want := 1 + rng.Intn(3)
	for ops < want {
		ids := m.sortedIDs()
		if len(ids) < 4 {
			break
		}
		switch k := rng.Intn(10); {
		case k < 5: // set-edge-cost
			from := ids[rng.Intn(len(ids))]
			if len(m[from]) == 0 {
				continue
			}
			to := m.pickSucc(from, rng.Intn(len(m[from])))
			cost := float32(1 + rng.Intn(100))
			b.SetEdgeCost(from, to, cost)
			m[from][to] = cost
		case k < 7: // insert-edge
			from := ids[rng.Intn(len(ids))]
			to := ids[rng.Intn(len(ids))]
			if from == to {
				continue
			}
			if _, dup := m[from][to]; dup {
				continue
			}
			cost := float32(1 + rng.Intn(100))
			b.InsertEdge(from, to, cost, pickPolicy(rng))
			m[from][to] = cost
		case k < 8: // delete-edge
			from := ids[rng.Intn(len(ids))]
			if len(m[from]) == 0 {
				continue
			}
			to := m.pickSucc(from, rng.Intn(len(m[from])))
			b.DeleteEdge(from, to, pickPolicy(rng))
			delete(m[from], to)
		case k < 9: // insert-node with one successor and one predecessor
			succ := ids[rng.Intn(len(ids))]
			pred := ids[rng.Intn(len(ids))]
			id := *nextID
			*nextID++
			rec := &ccam.Record{
				ID:    id,
				Pos:   ccam.Point{X: float64(rng.Intn(100)), Y: float64(rng.Intn(100))},
				Succs: []ccam.SuccEntry{{To: succ, Cost: float32(1 + rng.Intn(50))}},
				Preds: []ccam.NodeID{pred},
			}
			predCost := float32(1 + rng.Intn(50))
			b.Insert(&ccam.InsertOp{Rec: rec, PredCosts: []float32{predCost}}, pickPolicy(rng))
			m[id] = map[ccam.NodeID]float32{succ: rec.Succs[0].Cost}
			m[pred][id] = predCost
		default: // delete-node
			id := ids[rng.Intn(len(ids))]
			b.Delete(id, pickPolicy(rng))
			delete(m, id)
			for _, succs := range m {
				delete(succs, id)
			}
		}
		ops++
	}
	return b, ops
}

// segmentSize returns the size of the one segment in the log at dir.
func segmentSize(dir string) (int64, error) {
	segs, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	if len(segs) != 1 {
		return 0, fmt.Errorf("drill expects the stream to fit one WAL segment, got %d (lower Config.Ops)", len(segs))
	}
	info, err := segs[0].Info()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Run executes the drill in dir (which must exist and be writable) and
// returns once every crash point has been verified. Any divergence —
// a lost committed mutation, a phantom one, or an offline check
// failure on a recovered file — is an error naming the crash point.
func Run(dir string, cfg Config) (Result, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 60
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 8
	}
	if cfg.Cols <= 0 {
		cfg.Cols = 8
	}
	var res Result

	mapOpts := ccam.MinneapolisLikeOpts()
	mapOpts.Rows, mapOpts.Cols = cfg.Rows, cfg.Cols
	mapOpts.Seed = cfg.Seed
	g, err := ccam.RoadMap(mapOpts)
	if err != nil {
		return res, err
	}
	path := filepath.Join(dir, "net.ccam")
	s, err := ccam.Open(ccam.Options{
		PageSize: 1024, Path: path, WAL: true, Seed: cfg.Seed,
		// Group commit with one writer is one fsync per commit, which
		// keeps the drill deterministic, and a huge checkpoint bound
		// pins the data file at its post-Build image so every crash
		// point shares one data snapshot.
		SyncPolicy: ccam.SyncGroupCommit, CheckpointBytes: 1 << 40,
	})
	if err != nil {
		return res, err
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		return res, err
	}

	m := make(model)
	for _, id := range g.NodeIDs() {
		m[id] = make(map[ccam.NodeID]float32)
	}
	for _, e := range g.Edges() {
		m[e.From][e.To] = float32(e.Cost)
	}

	// prints[i] is the expected fingerprint with the first i batches
	// committed, nets[i] that state as a network and crrs[i] its CRR.
	fp, err := fingerprint(s)
	if err != nil {
		return res, err
	}
	prints, nets, crrs := []uint64{fp}, []*ccam.Network{g}, []float64{s.CRR(g)}
	// committed records the state after one more commit record.
	committed := func() error {
		fp, err := fingerprint(s)
		if err != nil {
			return err
		}
		net, err := m.network()
		if err != nil {
			return err
		}
		prints, nets, crrs = append(prints, fp), append(nets, net), append(crrs, s.CRR(net))
		return nil
	}
	// writeEnds[c] is the log's size once commit c is acknowledged: the
	// end of the one write that carried the commit's records.
	walDir := storage.WALDir(path)
	var writeEnds []int64
	wrote := func() error {
		size, err := segmentSize(walDir)
		writeEnds = append(writeEnds, size)
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextID := ccam.NodeID(1_000_000)
	for res.Ops < cfg.Ops {
		b, ops := genBatch(rng, m, &nextID)
		if ops == 0 {
			continue
		}
		before := s.Placement()
		if err := s.Apply(context.Background(), b); err != nil {
			return res, fmt.Errorf("apply batch %d: %w", res.Batches, err)
		}
		res.Batches++
		res.Ops += ops
		if movedOld(before, s.Placement()) {
			res.Reorganized++
		}
		if err := committed(); err != nil {
			return res, err
		}
		if err := wrote(); err != nil {
			return res, err
		}
		if res.Batches%5 != 0 {
			continue
		}
		lsn := s.WALStats().AppendedLSN
		if err := s.Poke(); err != nil {
			return res, fmt.Errorf("poke after batch %d: %w", res.Batches, err)
		}
		if s.WALStats().AppendedLSN != lsn {
			res.Rounds++
			if err := committed(); err != nil {
				return res, err
			}
			if err := wrote(); err != nil {
				return res, err
			}
		}
	}
	if res.Reorganized == 0 {
		return res, fmt.Errorf("no committed batch moved a record it did not insert: the stream never reorganized")
	}
	cfg.logf("drill: %d ops in %d batches (%d moved records they did not insert) and %d rounds over a %dx%d map",
		res.Ops, res.Batches, res.Reorganized, res.Rounds, cfg.Rows, cfg.Cols)

	// Snapshot the crash image while the store is open: under no-steal
	// with no intervening checkpoint the data file still holds the
	// post-Build image at every crash point, and the log holds every
	// appended record (Close would checkpoint and prune).
	segs, err := os.ReadDir(walDir)
	if err != nil {
		return res, err
	}
	if len(segs) != 1 {
		return res, fmt.Errorf("drill expects the stream to fit one WAL segment, got %d (lower Config.Ops)", len(segs))
	}
	segName := segs[0].Name()
	segData, err := os.ReadFile(filepath.Join(walDir, segName))
	if err != nil {
		return res, err
	}
	dataImage, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	recs, torn, err := storage.ScanWALDir(walDir)
	if err != nil {
		return res, err
	}
	if torn {
		return res, fmt.Errorf("live log scanned as torn")
	}
	ends := storage.WALRecordEnds(segData)
	if len(ends) != len(recs) {
		return res, fmt.Errorf("%d record ends vs %d scanned records", len(ends), len(recs))
	}
	res.Records = len(recs)
	if err := s.Close(); err != nil {
		return res, err
	}

	// commitsAt[k] = commits (batches and rounds) among the first k
	// records.
	commitsAt := make([]int, len(recs)+1)
	for i, r := range recs {
		commitsAt[i+1] = commitsAt[i]
		if r.Type == storage.WALRecCommit {
			commitsAt[i+1]++
		}
	}
	// Crash points below the Build checkpoint are unreachable: the
	// checkpoint-end record was fsynced before the first batch touched
	// the file, so no later crash can lose it — and the data image may
	// carry allocator noise (pages split off mid-stream) that only
	// checkpoint-based recovery erases. The drill therefore cuts from
	// the checkpoint-end record onward.
	first := -1
	for i, r := range recs {
		if r.Type == storage.WALRecCheckpointEnd {
			first = i + 1
			break
		}
	}
	if first < 0 {
		return res, fmt.Errorf("log holds no Build checkpoint")
	}
	// Past it the log holds exactly what replay reads: one mutation
	// record per op and one commit per batch or round.
	muts := 0
	for _, r := range recs[first:] {
		switch r.Type {
		case storage.WALRecMutation:
			muts++
		case storage.WALRecCommit:
		default:
			return res, fmt.Errorf("log holds a %s record past the Build checkpoint", r.Type)
		}
	}
	if commits := commitsAt[len(recs)]; muts != res.Ops || commits != res.Batches+res.Rounds {
		return res, fmt.Errorf("log holds %d mutations and %d commits past the Build checkpoint; the stream had %d ops, %d batches and %d rounds",
			muts, commits, res.Ops, res.Batches, res.Rounds)
	}

	// boundary k = the log truncated after its first k records
	// (walSegmentHeader bytes when k = 0).
	boundary := func(k int) int64 {
		if k == 0 {
			return storage.WALSegmentHeaderLen
		}
		return ends[k-1]
	}
	var drift []float64
	crash := func(cut int64, survivors int, label string) error {
		cdir := filepath.Join(dir, "crash")
		cpath := filepath.Join(cdir, "net.ccam")
		if err := os.MkdirAll(storage.WALDir(cpath), 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(cdir)
		if err := os.WriteFile(cpath, dataImage, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(storage.WALDir(cpath), segName), segData[:cut], 0o644); err != nil {
			return err
		}
		r, err := ccam.OpenPath(cpath, ccam.Options{})
		if err != nil {
			return fmt.Errorf("%s: reopen: %w", label, err)
		}
		// Replay reproduces a file whose pages, indexes, lists and PAG
		// summary agree.
		if err := r.Verify(); err != nil {
			r.Close()
			return fmt.Errorf("%s: %w", label, err)
		}
		got, err := fingerprint(r)
		if err != nil {
			r.Close()
			return fmt.Errorf("%s: %w", label, err)
		}
		if want := prints[commitsAt[survivors]]; got != want {
			r.Close()
			return fmt.Errorf("%s: recovered state diverges from the %d-batch committed prefix",
				label, commitsAt[survivors])
		}
		// The recovered MVCC read path must agree too: a snapshot
		// pinned right after recovery resolves to exactly the same
		// committed prefix — redo never installs page versions above
		// the recovered commit LSN.
		snap, err := r.Snapshot()
		if err != nil {
			r.Close()
			return fmt.Errorf("%s: snapshot after recovery: %w", label, err)
		}
		sgot, err := fingerprintScan(snap.Scan)
		snap.Close()
		if err != nil {
			r.Close()
			return fmt.Errorf("%s: snapshot scan: %w", label, err)
		}
		if sgot != prints[commitsAt[survivors]] {
			r.Close()
			return fmt.Errorf("%s: recovered snapshot diverges from the %d-batch committed prefix",
				label, commitsAt[survivors])
		}
		c := commitsAt[survivors]
		drift = append(drift, r.CRR(nets[c])-crrs[c])
		if err := r.Close(); err != nil {
			return fmt.Errorf("%s: close: %w", label, err)
		}
		rep, err := storage.CheckFile(cpath)
		if err != nil {
			return fmt.Errorf("%s: fsck: %w", label, err)
		}
		if !rep.OK() {
			return fmt.Errorf("%s: fsck not clean: header=%v freelist=%v damaged=%v",
				label, rep.HeaderErr, rep.FreeListErr, rep.Damaged)
		}
		wrep, err := storage.CheckWALDir(storage.WALDir(cpath))
		if err != nil {
			return fmt.Errorf("%s: wal check: %w", label, err)
		}
		if wrep.Err != nil {
			return fmt.Errorf("%s: wal check: %v", label, wrep.Err)
		}
		res.CrashPoints++
		return nil
	}

	for k := first; k <= len(ends); k++ {
		if err := crash(boundary(k), k, fmt.Sprintf("boundary %d/%d", k, len(ends))); err != nil {
			return res, err
		}
		if cfg.Torn && k < len(ends) {
			lo, hi := boundary(k), boundary(k+1)
			if hi-lo > 1 {
				// A cut inside record k+1 tears it; recovery must
				// truncate the torn tail and land on the same prefix as
				// boundary k.
				if err := crash(lo+(hi-lo)/2, k, fmt.Sprintf("torn %d/%d", k+1, len(ends))); err != nil {
					return res, err
				}
			}
		}
	}
	// A crash inside a commit's write leaves a prefix of it: the cut
	// falls mid-record in the middle of the write, and recovery keeps
	// the commits before it.
	prev := boundary(first)
	for c, end := range writeEnds {
		k := sort.Search(len(ends), func(i int) bool { return ends[i] >= end })
		if k == len(ends) || ends[k] != end || recs[k].Type != storage.WALRecCommit {
			return res, fmt.Errorf("commit %d: the log's write ends at byte %d, not at a commit record", c+1, end)
		}
		cut := prev + (end-prev)/2
		if i := sort.Search(len(ends), func(i int) bool { return ends[i] >= cut }); ends[i] == cut {
			cut++ // inside the next record, not at its boundary
		}
		survivors := sort.Search(len(ends), func(i int) bool { return ends[i] > cut })
		if err := crash(cut, survivors, fmt.Sprintf("inside write %d/%d", c+1, len(writeEnds))); err != nil {
			return res, err
		}
		prev = end
	}
	cfg.logf("drill: %d crash points recovered to the exact committed prefix", res.CrashPoints)
	sort.Float64s(drift)
	res.CRRDrift = [3]float64{drift[0], drift[len(drift)/2], drift[len(drift)-1]}
	return res, nil
}
