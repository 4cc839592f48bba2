// Command ccam-serve puts a CCAM store in front of network traffic:
// the full query surface (find, successors, range query, route and
// batch evaluation, transactional apply) over JSON/HTTP and over the
// compact binary protocol of internal/wire, with per-request
// deadlines, admission control that sheds excess load, and a graceful
// drain on SIGTERM/SIGINT (stop accepting, finish in-flight requests,
// checkpoint, close — so the next start replays no WAL).
//
// Usage:
//
//	ccam-serve -path city.ccam                       # serve an existing store
//	ccam-serve -path city.ccam -create -nodes 262144 # build one first
//
// Endpoints: POST /v1/{find,has,successors,route,range,find-batch,
// routes,query,apply}, GET /v1/info, plus /metrics, /metrics.json,
// /traces and /debug/pprof. The binary protocol listens on -tcp.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccam"
	"ccam/internal/graph"
	"ccam/internal/server"
)

func main() {
	var (
		path        = flag.String("path", "", "store data file (required)")
		httpAddr    = flag.String("http", "127.0.0.1:7070", "JSON/HTTP listen address (empty disables)")
		tcpAddr     = flag.String("tcp", "127.0.0.1:7071", "binary-protocol listen address (empty disables)")
		maxInFlight = flag.Int("max-inflight", server.DefaultMaxInFlight, "admission cap: concurrently executing requests before shedding")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline for requests that carry none (0 = unbounded)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
		create      = flag.Bool("create", false, "if the store is missing, build one from a synthetic road map")
		nodes       = flag.Int("nodes", 1079, "with -create: approximate node count of the generated map")
		seed        = flag.Int64("seed", 42, "with -create: map generator and partitioner seed")
		pageSize    = flag.Int("pagesize", 2048, "with -create: page size in bytes")
		poolPages   = flag.Int("pool", 256, "buffer pool capacity in pages")
		poolShards  = flag.Int("pool-shards", 0, "buffer pool shard count (0 = auto-size to the machine, 1 = single latch)")
		noWAL       = flag.Bool("no-wal", false, "with -create: disable the write-ahead log")
		logLevel    = flag.String("log", "info", "structured-log level on stderr: debug, info, warn, error, or off")
		slowQuery   = flag.Duration("slow-query", 0, "log any request slower than this with its span breakdown and resource account (0 = off)")
		traceCap    = flag.Int("trace", 256, "operation-trace ring capacity for /traces (0 disables tracing)")
	)
	flag.Parse()
	if err := run(runConfig{
		path: *path, httpAddr: *httpAddr, tcpAddr: *tcpAddr,
		maxInFlight: *maxInFlight, deadline: *deadline, drain: *drain,
		create: *create, nodes: *nodes, seed: *seed,
		pageSize: *pageSize, poolPages: *poolPages,
		poolShards: *poolShards, wal: !*noWAL,
		logLevel: *logLevel, slowQuery: *slowQuery, traceCap: *traceCap,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ccam-serve:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	path, httpAddr, tcpAddr string
	maxInFlight             int
	deadline, drain         time.Duration
	create                  bool
	nodes                   int
	seed                    int64
	pageSize, poolPages     int
	poolShards              int
	wal                     bool
	logLevel                string
	slowQuery               time.Duration
	traceCap                int
}

// newLogger builds the stderr slog logger, or nil for -log off.
func newLogger(level string) (*slog.Logger, error) {
	if level == "off" {
		return nil, nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log level %q (want debug, info, warn, error or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func run(cfg runConfig) error {
	if cfg.path == "" {
		return errors.New("-path is required")
	}
	logger, err := newLogger(cfg.logLevel)
	if err != nil {
		return err
	}
	st, err := openStore(cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("store: %s (%s, %d nodes, %d pages)\n", cfg.path, st.Name(), st.Len(), st.NumPages())
	if logger != nil {
		// Recovery summary: what the open just did to get consistent.
		ws := st.WALStats()
		if ws.Enabled && ws.ReplayedBatches > 0 {
			logger.Warn("wal recovery: previous shutdown was not clean",
				"replayed_batches", ws.ReplayedBatches, "replayed_mutations", ws.ReplayedMutations)
		} else {
			logger.Info("store open", "name", st.Name(), "nodes", st.Len(),
				"pages", st.NumPages(), "wal", ws.Enabled)
		}
	}

	srv := server.New(server.Options{
		Store:           st,
		MaxInFlight:     cfg.maxInFlight,
		DefaultDeadline: cfg.deadline,
		Logger:          logger,
		SlowQuery:       cfg.slowQuery,
	})

	errc := make(chan error, 2)
	var httpSrv *http.Server
	if cfg.httpAddr != "" {
		l, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return err
		}
		httpSrv = &http.Server{Handler: srv.Handler()}
		fmt.Printf("http: listening on %s\n", l.Addr())
		go func() {
			if err := httpSrv.Serve(l); err != nil && err != http.ErrServerClosed {
				errc <- err
			}
		}()
	}
	if cfg.tcpAddr != "" {
		l, err := net.Listen("tcp", cfg.tcpAddr)
		if err != nil {
			return err
		}
		fmt.Printf("tcp: listening on %s (binary protocol)\n", l.Addr())
		go func() {
			if err := srv.ServeBinary(l); err != nil {
				errc <- err
			}
		}()
	}
	if httpSrv == nil && cfg.tcpAddr == "" {
		return errors.New("nothing to serve: both -http and -tcp are empty")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Printf("%s: draining (budget %s)\n", s, cfg.drain)
	case err := <-errc:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if httpSrv != nil {
		httpSrv.SetKeepAlivesEnabled(false)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ccam-serve: http shutdown:", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Println("drained: in-flight finished, checkpointed, closed")
	return nil
}

// openStore opens the store at cfg.path, or builds it from a
// synthetic road map when -create is set and the file is missing.
func openStore(cfg runConfig) (*ccam.Store, error) {
	shards := cfg.poolShards
	if shards == 0 {
		shards = ccam.AutoPoolShards(cfg.poolPages)
	}
	opts := ccam.Options{
		PoolPages:     cfg.poolPages,
		PoolShards:    shards,
		Seed:          cfg.seed,
		Metrics:       true,
		WAL:           cfg.wal,
		TraceCapacity: cfg.traceCap,
	}
	if _, err := os.Stat(cfg.path); err == nil {
		return ccam.OpenPath(cfg.path, opts)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if !cfg.create {
		return nil, fmt.Errorf("store %s does not exist (pass -create to build one)", cfg.path)
	}
	mapOpts := graph.MinneapolisLikeOpts()
	mapOpts.Seed = cfg.seed
	side := 1
	for side*side < cfg.nodes {
		side++
	}
	mapOpts.Rows, mapOpts.Cols = side, side
	g, err := graph.RoadMap(mapOpts)
	if err != nil {
		return nil, err
	}
	opts.Path = cfg.path
	opts.PageSize = cfg.pageSize
	st, err := ccam.Open(opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("building %d-node store (this partitions the whole network)...\n", g.NumNodes())
	if err := st.Build(g); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}
