package server

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ccam"
	"ccam/internal/storage"
	"ccam/internal/wire"
)

// The kill drill checks the served promise end to end: the daemon
// answers an Apply only once its commit is in the log, so a kill -9 at
// any instant loses no acknowledged batch. The test binary re-executes
// itself as the daemon (TestKillDrillDaemon, selected by
// killDrillEnv), drives it over the binary protocol, SIGKILLs it and
// reopens what the kill left. kill -9 keeps the OS page cache, so the
// drill checks ordering and acknowledgement, not fsync.

// killDrillEnv names the store path of the daemon the drill starts.
const killDrillEnv = "CCAM_KILL_DRILL_STORE"

// killDrillCheckpointBytes is low enough that checkpoints — their
// page-image writes, data-file flushes and log prunes — fall inside
// every run.
const killDrillCheckpointBytes = 64 << 10

// killDrillMap is the network the daemon builds; the drill derives the
// clients' nodes and edges from the same call.
func killDrillMap(t *testing.T) *ccam.Network {
	t.Helper()
	o := ccam.MinneapolisLikeOpts()
	o.Rows, o.Cols, o.Seed = 12, 12, 1
	g, err := ccam.RoadMap(o)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestKillDrillDaemon is the daemon of TestKillDrill: it builds a WAL
// store at the path killDrillEnv names, serves it on a loopback port,
// prints the port and the LSN of the build's checkpoint, and serves
// until it is killed. Run alone, it skips.
func TestKillDrillDaemon(t *testing.T) {
	path := os.Getenv(killDrillEnv)
	if path == "" {
		t.Skip("the daemon of TestKillDrill")
	}
	// A daemon whose drill died is not left behind.
	time.AfterFunc(time.Minute, func() { os.Exit(3) })
	st, err := ccam.Open(ccam.Options{
		PageSize: 1024, Path: path, WAL: true, Seed: 1,
		CheckpointBytes: killDrillCheckpointBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Build(killDrillMap(t)); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("kill-drill-daemon %s %d\n", l.Addr(), st.WALStats().AppendedLSN)
	New(Options{Store: st}).ServeBinary(l)
}

// killClient owns the out-edges of every node id with index ≡ k (mod
// 2) in the map's sorted ids, so the two clients' batches commute and
// each one's stream is checked on its own. It keeps one batch in
// flight at a time.
type killClient struct {
	k     int
	rng   *rand.Rand
	own   []ccam.NodeID
	all   []ccam.NodeID
	edges map[[2]ccam.NodeID]float32 // the model: every edge out of an own node
	added [][2]ccam.NodeID           // edges the client inserted and has not deleted
	// prints[n] fingerprints the model after n batches; prints past
	// acked belong to the batch in flight.
	prints []uint64
	acked  int
}

// fingerprint hashes edges in a canonical order.
func fingerprint(edges map[[2]ccam.NodeID]float32) uint64 {
	keys := make([][2]ccam.NodeID, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	h := fnv.New64a()
	for _, e := range keys {
		fmt.Fprintf(h, "%d>%d=%g;", e[0], e[1], edges[e])
	}
	return h.Sum64()
}

// next draws the client's next 1–4-op batch and applies it to the
// model: cost updates of own edges, and edge inserts and deletes under
// the second-order policy, so the batches reorganize pages.
func (c *killClient) next() []wire.ApplyOp {
	var ops []wire.ApplyOp
	for n := 1 + c.rng.Intn(4); len(ops) < n; {
		cost := float32(1 + c.rng.Intn(1000))
		switch r := c.rng.Intn(10); {
		case r < 6:
			from := c.own[c.rng.Intn(len(c.own))]
			var tos []ccam.NodeID
			for e := range c.edges {
				if e[0] == from {
					tos = append(tos, e[1])
				}
			}
			if len(tos) == 0 {
				continue
			}
			sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
			to := tos[c.rng.Intn(len(tos))]
			ops = append(ops, wire.ApplyOp{Kind: wire.OpSetEdgeCost, From: from, To: to, Cost: cost})
			c.edges[[2]ccam.NodeID{from, to}] = cost
		case r < 8:
			e := [2]ccam.NodeID{c.own[c.rng.Intn(len(c.own))], c.all[c.rng.Intn(len(c.all))]}
			if _, dup := c.edges[e]; dup || e[0] == e[1] {
				continue
			}
			ops = append(ops, wire.ApplyOp{Kind: wire.OpInsertEdge, Policy: "second-order", From: e[0], To: e[1], Cost: cost})
			c.edges[e] = cost
			c.added = append(c.added, e)
		default:
			if len(c.added) == 0 {
				continue
			}
			i := c.rng.Intn(len(c.added))
			e := c.added[i]
			c.added[i] = c.added[len(c.added)-1]
			c.added = c.added[:len(c.added)-1]
			ops = append(ops, wire.ApplyOp{Kind: wire.OpDeleteEdge, Policy: "second-order", From: e[0], To: e[1]})
			delete(c.edges, e)
		}
	}
	return ops
}

// run sends batches until a call fails, which the kill makes happen.
// The drill reads prints and acked once run has returned.
func (c *killClient) run(addr string, acked func()) error {
	conn, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	for {
		ops := c.next()
		c.prints = append(c.prints, fingerprint(c.edges))
		if _, err := conn.Apply(context.Background(), ops); err != nil {
			return err
		}
		c.acked++
		acked()
	}
}

// TestKillDrill runs the daemon under two closed-loop writers and a
// reader, SIGKILLs it once a seeded number of batches is acknowledged
// plus a seeded delay, and reopens the store it left. Each client's
// batches must have survived as a prefix of its stream that holds
// every acknowledged batch and at most the one in flight, the reopened
// store must pass Store.Verify, and a checkpoint must have completed
// during the run.
func TestKillDrill(t *testing.T) {
	if os.Getenv(killDrillEnv) != "" {
		t.Skip("inside the daemon")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { killDrill(t, seed) })
	}
}

func killDrill(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	killAfter := 1500 + rng.Intn(1500)                            // acknowledged batches
	killDelay := time.Duration(rng.Intn(2000)) * time.Microsecond // then this much more
	where := fmt.Sprintf("seed %d, killed %v after the %dth acknowledged batch", seed, killDelay, killAfter)

	path := filepath.Join(t.TempDir(), "net.ccam")
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillDrillDaemon$")
	cmd.Env = append(os.Environ(), killDrillEnv+"="+path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var addr string
	var builtLSN uint64
	sc := bufio.NewScanner(out)
	for addr == "" && sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "kill-drill-daemon" {
			addr = f[1]
			fmt.Sscan(f[2], &builtLSN)
		}
	}
	if addr == "" {
		t.Fatalf("the daemon printed no address: %v", sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()

	g := killDrillMap(t)
	ids := g.NodeIDs()
	owner := make(map[ccam.NodeID]int, len(ids))
	var clients [2]*killClient
	for k := range clients {
		clients[k] = &killClient{k: k, rng: rand.New(rand.NewSource(seed*10 + int64(k))), all: ids,
			edges: map[[2]ccam.NodeID]float32{}}
	}
	for i, id := range ids {
		owner[id] = i % 2
		clients[i%2].own = append(clients[i%2].own, id)
	}
	for _, e := range g.Edges() {
		clients[owner[e.From]].edges[[2]ccam.NodeID{e.From, e.To}] = float32(e.Cost)
	}
	for _, c := range clients {
		c.prints = []uint64{fingerprint(c.edges)}
	}

	var (
		killMu   sync.Mutex
		total    int
		killed   bool
		timedOut bool // the deadline, not the seeded instant, killed the daemon
	)
	kill := func(deadline bool) {
		killMu.Lock()
		defer killMu.Unlock()
		if !killed {
			killed, timedOut = true, deadline
			cmd.Process.Kill()
		}
	}
	acked := func() {
		killMu.Lock()
		total++
		fire := total == killAfter
		killMu.Unlock()
		if fire {
			go func() {
				time.Sleep(killDelay)
				kill(false)
			}()
		}
	}
	errs := make(chan error, len(clients))
	for _, c := range clients {
		go func(c *killClient) {
			err := c.run(addr, acked)
			killMu.Lock()
			if !killed {
				err = fmt.Errorf("client %d: apply failed before the kill: %w", c.k, err)
			} else {
				err = nil
			}
			killMu.Unlock()
			errs <- err
		}(c)
	}
	// A reader queries beside the writers.
	go func() {
		conn, err := wire.Dial(addr)
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; ; i++ {
			if _, err := conn.Find(context.Background(), ids[i%len(ids)]); err != nil {
				return
			}
		}
	}()
	deadline := time.AfterFunc(20*time.Second, func() { kill(true) })
	for range clients {
		if err := <-errs; err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	deadline.Stop()
	cmd.Wait()
	killMu.Lock()
	late, n := timedOut, total
	killMu.Unlock()
	if late || n < killAfter {
		t.Fatalf("%s: the 20 s deadline killed the daemon after %d acknowledged batches", where, n)
	}

	// A checkpoint completed after the build's: the data file's header
	// names a later one.
	fs, err := storage.OpenFileStore(path)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	applied := fs.AppliedLSN()
	fs.Close()
	if applied <= builtLSN {
		t.Fatalf("%s: no checkpoint completed during the run (data file at LSN %d, the build's at %d)", where, applied, builtLSN)
	}

	st, err := ccam.OpenPath(path, ccam.Options{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", where, err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	got := [2]map[[2]ccam.NodeID]float32{{}, {}}
	if err := st.Scan(func(rec *ccam.Record) bool {
		for _, sc := range rec.Succs {
			got[owner[rec.ID]][[2]ccam.NodeID{rec.ID, sc.To}] = sc.Cost
		}
		return true
	}); err != nil {
		t.Fatalf("%s: scan: %v", where, err)
	}
	for k, c := range clients {
		fp := fingerprint(got[k])
		n := -1
		for i := c.acked; i < len(c.prints); i++ {
			if c.prints[i] == fp {
				n = i
			}
		}
		if n < 0 {
			t.Fatalf("%s: client %d recovered to no prefix of its stream holding its %d acknowledged batches (%d sent)",
				where, k, c.acked, len(c.prints)-1)
		}
		t.Logf("%s: client %d recovered %d batches (%d acknowledged)", where, k, n, c.acked)
	}
}
