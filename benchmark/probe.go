package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ccam"
	"ccam/internal/btree"
	"ccam/internal/buffer"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/query/exec"
	"ccam/internal/query/lang"
	"ccam/internal/query/plan"
	"ccam/internal/storage"
)

// probeStore is the harness's timing and counting storage.Store. Two
// of them sit in the probe stack, one below storage.CheckedStore (the
// physical read) and one above it (read plus CRC), so the difference
// of the two is the checksum's cost. Everything but ReadPage passes
// through; the probe stack never writes.
type probeStore struct {
	storage.Store
	readSpan string
	tr       *tracer // nil: no spans
	keep     bool    // record every read's duration in reads
	reads    samples
	nReads   int64
}

func (p *probeStore) ReadPage(id storage.PageID, buf []byte) error {
	i := p.tr.begin(p.readSpan)
	t0 := time.Now()
	err := p.Store.ReadPage(id, buf)
	if p.keep {
		p.reads = append(p.reads, time.Since(t0).Nanoseconds())
	}
	p.tr.end(i)
	p.nReads++
	return err
}

// probeStack is the layer stack the harness assembles itself from a
// copy of the fixture's file image, so it can call each layer's public
// functions directly and see the page reads underneath:
//
//	FileStore -> probeStore -> CheckedStore -> probeStore -> netfile.File -> File.Pool()
//
// plus a B+-tree of its own, bulk-loaded with the fixture's node-id ->
// page-id pairs, and a planner catalog.
type probeStack struct {
	fs           *storage.FileStore
	lower, upper *probeStore
	f            *netfile.File
	tree         *btree.Tree
	treePool     *buffer.Pool
	cat          *plan.Catalog
	place        graph.Placement
}

// copyStore copies a store's data file and WAL directory. The source
// must have no unflushed pages (it was just checkpointed by Close or
// by OpenPath).
func copyStore(from, to string) error {
	if err := copyFile(from, to); err != nil {
		return err
	}
	entries, err := os.ReadDir(from + storage.WALSuffix)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(to+storage.WALSuffix, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(from+storage.WALSuffix, e.Name()), filepath.Join(to+storage.WALSuffix, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// openProbeStack opens the data file at path (a private copy of the
// fixture image) read-only in spirit: the stack never writes to it.
func openProbeStack(path string, poolPages int) (*probeStack, error) {
	fs, err := storage.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	ps := &probeStack{fs: fs}
	ps.lower = &probeStore{Store: fs, readSpan: "storage.read"}
	cs, err := storage.NewCheckedStore(ps.lower)
	if err != nil {
		fs.Close()
		return nil, err
	}
	ps.upper = &probeStore{Store: cs, readSpan: "storage.checked_read"}
	if ps.f, err = netfile.OpenFromStoreOpts(ps.upper, netfile.Options{PoolPages: poolPages}); err != nil {
		fs.Close()
		return nil, err
	}
	ps.place = ps.f.Placement()

	// The harness's own node index: the same keys and values the
	// file's index holds, in a tree whose pool the harness can count.
	entries := make([]btree.Entry, 0, len(ps.place))
	for id, pid := range ps.place {
		entries = append(entries, btree.Entry{Key: uint64(id), Val: uint64(pid)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	ps.treePool = buffer.NewPool(storage.NewMemStore(pageSize), 1<<14)
	if ps.tree, err = btree.New(ps.treePool); err != nil {
		fs.Close()
		return nil, err
	}
	if err := ps.tree.BulkLoad(entries); err != nil {
		fs.Close()
		return nil, err
	}
	if ps.cat, err = plan.NewCatalog(ps.f); err != nil {
		fs.Close()
		return nil, err
	}
	return ps, nil
}

func (ps *probeStack) close() { ps.fs.Close() }

// trace points both wrappers at t (nil: stop recording spans).
func (ps *probeStack) trace(t *tracer) { ps.lower.tr, ps.upper.tr = t, t }

// probeBuild times the two halves of a static create on their own:
// cluster-nodes-into-pages (partition) and the bulk load of the
// resulting groups into a fresh in-memory file (netfile).
func probeBuild(g *graph.Network) (clusterS, bulkloadS float64, err error) {
	t0 := time.Now()
	groups, err := partition.ClusterNodesIntoPagesOpts(g, netfile.StoredSizer(g),
		netfile.PageBudget(pageSize-storage.ChecksumTrailerLen), &partition.RatioCut{},
		partition.ClusterOptions{Seed: partitionSeed})
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: %w", err)
	}
	clusterS = time.Since(t0).Seconds()
	f, err := netfile.Create(netfile.Options{PageSize: pageSize - storage.ChecksumTrailerLen,
		PoolPages: 1024, Bounds: g.Bounds()})
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	if err := f.BulkLoad(g, groups); err != nil {
		return 0, 0, fmt.Errorf("bulk load: %w", err)
	}
	return clusterS, time.Since(t0).Seconds(), nil
}

// timeN times n calls of fn one by one.
func timeN(n int, fn func(i int)) samples {
	out := make(samples, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = time.Since(t0).Nanoseconds()
	}
	return out
}

// allocsN returns the heap allocations and bytes per call of fn over
// n calls. Nothing else may run meanwhile.
func allocsN(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

const probeCalls = 4000

// probeLayers runs the micro-probes that need no workload: each times
// one layer's public function on the probe stack, in isolation.
func (ps *probeStack) probeLayers(r *runResult, m *mix, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	keys := hotKeys(m, seed, 200, probeCalls)

	// storage: a page read below the checksum, and what the checksum
	// adds on top of it.
	pids := ps.upper.PageIDs()
	buf := make([]byte, ps.upper.PageSize())
	ps.lower.keep, ps.upper.keep = true, true
	ps.lower.reads, ps.upper.reads = nil, nil
	for i := 0; i < probeCalls; i++ {
		if err := ps.upper.ReadPage(pids[rng.Intn(len(pids))], buf); err != nil {
			return fmt.Errorf("probe read: %w", err)
		}
	}
	ps.lower.keep, ps.upper.keep = false, false
	crc := make(samples, probeCalls)
	for i := range crc {
		crc[i] = ps.upper.reads[i] - ps.lower.reads[i]
	}
	r.set("storage.read_ns_p50", ps.lower.reads.quantile(0.5))
	r.set("storage.checksum_ns_per_page", crc.quantile(0.5))

	// buffer: a pool of the harness's own over the same pages, small
	// enough that a cyclic sweep never hits and every miss evicts.
	pool := buffer.NewPool(ps.upper, 64)
	sweep := pids
	if len(sweep) > 1024 {
		sweep = sweep[:1024]
	}
	var perr error
	miss := timeN(probeCalls, func(i int) {
		pid := sweep[i%len(sweep)]
		if _, err := pool.Fetch(pid); err != nil {
			perr = err
			return
		}
		pool.Unpin(pid, false)
	})
	hit := timeN(probeCalls, func(int) {
		pid := sweep[0]
		if _, err := pool.Fetch(pid); err != nil {
			perr = err
			return
		}
		pool.Unpin(pid, false)
	})
	if perr != nil {
		return fmt.Errorf("probe fetch: %w", perr)
	}
	r.set("buffer.fetch_miss_ns_p50", miss.quantile(0.5))
	r.set("buffer.fetch_hit_ns_p50", hit.quantile(0.5))

	// btree: descents and in-place puts on the harness's own tree.
	f0 := ps.treePool.Stats().Fetches
	get := timeN(probeCalls, func(i int) {
		if _, err := ps.tree.Get(uint64(keys[i])); err != nil {
			perr = err
		}
	})
	r.set("btree.get_ns_p50", get.quantile(0.5))
	r.set("btree.pages_per_get", float64(ps.treePool.Stats().Fetches-f0)/probeCalls)
	put := timeN(probeCalls, func(i int) {
		if err := ps.tree.Put(uint64(keys[i]), uint64(ps.place[keys[i]])); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("probe btree: %w", perr)
	}
	r.set("btree.put_ns_p50", put.quantile(0.5))

	// netfile: record decode on its own.
	encoded := make([][]byte, probeCalls)
	for i, id := range keys {
		rec, err := ps.f.Find(id)
		if err != nil {
			return fmt.Errorf("probe find: %w", err)
		}
		encoded[i] = netfile.EncodeRecord(rec)
	}
	dec := timeN(probeCalls, func(i int) {
		if _, err := netfile.DecodeRecord(encoded[i]); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("probe decode: %w", perr)
	}
	allocs, _ := allocsN(probeCalls, func(i int) { netfile.DecodeRecord(encoded[i]) })
	r.set("netfile.decode_ns_p50", dec.quantile(0.5))
	r.set("netfile.decode_allocs_per_op", allocs)

	// netfile: data pages under a 32-hop route, beside the model.
	var distinct float64
	seen := map[storage.PageID]bool{}
	for _, route := range m.routes {
		clear(seen)
		for _, id := range route {
			seen[ps.place[id]] = true
		}
		distinct += float64(len(seen))
	}
	r.set("netfile.pages_per_route", distinct/float64(len(m.routes)))
	return nil
}

// probeQueryPrediction runs a sample of the stream's NEIGHBORS
// statements against a cold pool and compares the planner's predicted
// data pages with the pages the execution read.
func (ps *probeStack) probeQueryPrediction(m *mix, seed int64) (float64, error) {
	gen := newOpGen(m, seed, 201)
	ctx := context.Background()
	var sum float64
	const n = 200
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("NEIGHBORS %d DEPTH 2", gen.nextKey())
		q, err := lang.Parse(src)
		if err != nil {
			return 0, err
		}
		pl, err := plan.Build(ps.cat, q)
		if err != nil {
			return 0, err
		}
		if err := ps.f.Pool().Reset(); err != nil {
			return 0, err
		}
		r0 := ps.lower.nReads
		if _, err := exec.Run(ctx, ps.f, pl, q); err != nil {
			return 0, err
		}
		read := float64(ps.lower.nReads - r0)
		if read > 0 {
			d := float64(pl.Chosen.Pages) - read
			if d < 0 {
				d = -d
			}
			sum += d / read
		}
	}
	return sum / n, nil
}

// probeFacade measures what the root Store's calls allocate.
func probeFacade(r *runResult, s *ccam.Store, m *mix, seed int64) {
	ctx := context.Background()
	keys := hotKeys(m, seed, 202, probeCalls)
	a, b := allocsN(probeCalls, func(i int) { s.Find(ctx, keys[i]) })
	r.set("ccam.find_allocs_per_op", a)
	r.set("ccam.find_bytes_per_op", b)
	a, _ = allocsN(probeCalls, func(i int) { s.GetSuccessors(ctx, keys[i]) })
	r.set("ccam.succ_allocs_per_op", a)
	const routes = 500
	a, _ = allocsN(routes, func(i int) { s.EvaluateRoute(ctx, m.routes[i%len(m.routes)]) })
	r.set("ccam.route_allocs_per_hop", a/(routeNodes-1))
}

// hotKeys draws n keys of the stream of client index client.
func hotKeys(m *mix, seed int64, client, n int) []ccam.NodeID {
	gen := newOpGen(m, seed, client)
	keys := make([]ccam.NodeID, n)
	for i := range keys {
		keys[i] = gen.nextKey()
	}
	return keys
}

// findP50 is the median latency of find over keys, in ns, after one
// pass that faults their pages in.
func findP50(keys []ccam.NodeID, find func(id ccam.NodeID) error) (float64, error) {
	for _, id := range keys {
		if err := find(id); err != nil {
			return 0, err
		}
	}
	return timeN(len(keys), func(i int) { find(keys[i]) }).quantile(0.5), nil
}

// storeFind adapts Store.Find to findP50.
func storeFind(s *ccam.Store) func(id ccam.NodeID) error {
	return func(id ccam.NodeID) error {
		_, err := s.Find(context.Background(), id)
		return err
	}
}

// probeMetricsOn opens a copy of the image with the observability
// registry on and returns its Find p50 over the plain store's, on the
// same keys.
func probeMetricsOn(plain *ccam.Store, copyPath string, o ccam.Options, keys []ccam.NodeID) (float64, error) {
	o.Metrics = true
	inst, err := ccam.OpenPath(copyPath, o)
	if err != nil {
		return 0, fmt.Errorf("open instrumented copy: %w", err)
	}
	defer inst.Close()
	on, err := findP50(keys, storeFind(inst))
	if err != nil {
		return 0, err
	}
	off, err := findP50(keys, storeFind(plain))
	if err != nil {
		return 0, err
	}
	return on / off, nil
}
