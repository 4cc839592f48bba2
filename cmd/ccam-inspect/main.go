// Command ccam-inspect builds a CCAM file over a synthetic road map and
// prints its physical organization: pages, fill factors, the CRR, and
// optionally the page access graph and a per-page node listing.
//
// Usage:
//
//	ccam-inspect                       # paper-scale map, 2k pages
//	ccam-inspect -block 1024 -pag      # show PAG degrees
//	ccam-inspect -pages                # list nodes per page
//	ccam-inspect -query "EXPLAIN FIND 7"
//	ccam-inspect -query -              # CCAM-QL REPL on stdin
//
// With -query the file summary is skipped and the CCAM-QL statement
// runs against the built store instead; "-" reads statements from
// stdin one per line (an interactive EXPLAIN workbench).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ccam"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

func main() {
	block := flag.Int("block", 2048, "disk block size")
	seed := flag.Int64("seed", 42, "partitioner seed")
	dynamic := flag.Bool("dynamic", false, "use the incremental create (CCAM-D)")
	showPAG := flag.Bool("pag", false, "print page access graph degrees")
	showPages := flag.Bool("pages", false, "list the nodes on each page")
	query := flag.String("query", "", "run one CCAM-QL statement instead of the file summary; \"-\" reads statements from stdin")
	flag.Parse()

	if err := run(os.Stdout, *block, *seed, *dynamic, *showPAG, *showPages, *query); err != nil {
		fmt.Fprintln(os.Stderr, "ccam-inspect:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, block int, seed int64, dynamic, showPAG, showPages bool, query string) error {
	g, err := ccam.RoadMap(ccam.MinneapolisLikeOpts())
	if err != nil {
		return err
	}
	store, err := ccam.Open(ccam.Options{PageSize: block, Seed: seed, Dynamic: dynamic, Metrics: true})
	if err != nil {
		return err
	}
	defer store.Close()
	if err := store.Build(g); err != nil {
		return err
	}

	if query == "-" {
		return runREPL(w, os.Stdin, store)
	}
	if query != "" {
		return runQuery(w, store, query)
	}

	kind := "CCAM-S (static create)"
	if dynamic {
		kind = "CCAM-D (incremental create)"
	}
	fmt.Fprintf(w, "%s, block size %d\n", kind, block)
	fmt.Fprintf(w, "network: %d nodes, %d directed edges\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(w, "file: %d records on %d pages (blocking factor %.2f)\n",
		store.Len(), store.NumPages(), float64(store.Len())/float64(store.NumPages()))
	// The gauges read the file's PAG summary, so there is nothing to
	// recompute here.
	reg := store.Metrics()
	fmt.Fprintf(w, "CRR: %.4f   WCRR: %.4f\n",
		reg.Gauge("ccam_crr").Value(), reg.Gauge("ccam_wcrr").Value())

	placement := store.Placement()
	perPage := map[storage.PageID][]graph.NodeID{}
	for id, pid := range placement {
		perPage[pid] = append(perPage[pid], id)
	}
	var pids []storage.PageID
	for pid := range perPage {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	sizer := netfile.RecordSizer(g)
	var fills []float64
	for _, pid := range pids {
		used := 0
		for _, id := range perPage[pid] {
			used += sizer(id) + storage.PerRecordOverhead
		}
		fills = append(fills, float64(used)/float64(block))
	}
	sort.Float64s(fills)
	fmt.Fprintf(w, "page fill: min %.2f  median %.2f  max %.2f\n",
		fills[0], fills[len(fills)/2], fills[len(fills)-1])

	if showPAG {
		pag := graph.BuildPAG(g, placement)
		degs := make([]int, 0, len(pids))
		for _, pid := range pids {
			degs = append(degs, len(pag.NbrPages(pid)))
		}
		sort.Ints(degs)
		fmt.Fprintf(w, "PAG: %d pages, degree min %d median %d max %d\n",
			pag.NumPages(), degs[0], degs[len(degs)/2], degs[len(degs)-1])
	}
	if showPages {
		for _, pid := range pids {
			ids := perPage[pid]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			fmt.Fprintf(w, "page %4d (%2d records): %v\n", pid, len(ids), ids)
		}
	}
	return nil
}

// runQuery executes one CCAM-QL statement and renders the result.
func runQuery(w io.Writer, store *ccam.Store, stmt string) error {
	res, err := store.Query(context.Background(), stmt)
	if err != nil {
		return err
	}
	printResult(w, res)
	return nil
}

// runREPL reads statements from r one per line, printing each result;
// a failed statement reports its error and the loop continues.
func runREPL(w io.Writer, r io.Reader, store *ccam.Store) error {
	fmt.Fprintln(w, "CCAM-QL: FIND, WINDOW, NEIGHBORS, ROUTE, PATH; prefix with EXPLAIN for the plan; exit to quit")
	sc := bufio.NewScanner(r)
	for {
		fmt.Fprint(w, "ccam> ")
		if !sc.Scan() {
			fmt.Fprintln(w)
			return sc.Err()
		}
		stmt := strings.TrimSpace(sc.Text())
		switch stmt {
		case "":
			continue
		case "exit", "quit":
			return nil
		}
		if err := runQuery(w, store, stmt); err != nil {
			fmt.Fprintln(w, "error:", err)
		}
	}
}

// maxREPLRows caps the node listing a single statement prints.
const maxREPLRows = 20

// printResult renders one query result: the plan rendering for
// EXPLAIN, otherwise the rows/aggregate with the predicted vs
// measured page accesses.
func printResult(w io.Writer, res *ccam.Result) {
	if res.Explain {
		fmt.Fprint(w, res.Text)
		return
	}
	if res.Plan != nil {
		fmt.Fprintf(w, "access path %s, predicted %d data page(s)",
			res.Plan.Chosen.Path, res.Plan.Chosen.Pages)
		if res.Actual != nil {
			fmt.Fprintf(w, ", measured %d read(s)", res.Actual.DataReads)
		}
		fmt.Fprintln(w)
	}
	for i, n := range res.Nodes {
		if i == maxREPLRows {
			fmt.Fprintf(w, "  ... %d more\n", len(res.Nodes)-maxREPLRows)
			break
		}
		fmt.Fprintf(w, "  node %d at (%g, %g), %d successor(s)\n", n.ID, n.X, n.Y, n.Succs)
	}
	switch res.Kind {
	case "window", "neighbors":
		extra := ""
		if res.Truncated {
			extra = " (truncated)"
		}
		fmt.Fprintf(w, "%d node(s)%s\n", res.Count, extra)
	case "route", "path":
		fmt.Fprintf(w, "%d node(s), total cost %g\n", res.Count, res.Cost)
		if len(res.Path) > 0 {
			fmt.Fprintf(w, "path: %v\n", res.Path)
		}
	}
	if res.Agg != nil {
		fmt.Fprintf(w, "%s(%s) = %g over %d value(s)\n",
			res.Agg.Fn, res.Agg.Attr, res.Agg.Value, res.Agg.Count)
	}
}
