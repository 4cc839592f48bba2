package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ccam"
)

// roadMap generates the fixture map: MinneapolisLikeOpts stretched to
// a Side x Side lattice, always with the same seed.
func roadMap(sc scale) (*ccam.Network, error) {
	o := ccam.MinneapolisLikeOpts()
	o.Rows, o.Cols = sc.Side, sc.Side
	o.Seed = mapSeed
	return ccam.RoadMap(o)
}

// buildStoreFile generates the map and builds a store file from it,
// closed and durable at path.
func buildStoreFile(path string, w workload, sc scale) (*ccam.Network, error) {
	g, err := roadMap(sc)
	if err != nil {
		return nil, err
	}
	s, err := ccam.Open(storeOptions(path, w, sc))
	if err != nil {
		return nil, err
	}
	if err := s.Build(g); err != nil {
		s.Close()
		return nil, fmt.Errorf("build: %w", err)
	}
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("close after build: %w", err)
	}
	return g, nil
}

// openStore reopens a built store the way each in-process workload
// uses it. The on-disk page size wins over Options.PageSize.
func openStore(path string, w workload, sc scale) (*ccam.Store, error) {
	o := storeOptions(path, w, sc)
	o.Path = ""
	return ccam.OpenPath(path, o)
}

// setupInProcess is one set-up of an in-process workload: map
// generation, Build, close, reopen, first answered query.
func setupInProcess(path string, w workload, sc scale) (*ccam.Store, *ccam.Network, time.Duration, error) {
	start := time.Now()
	g, err := buildStoreFile(path, w, sc)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := openStore(path, w, sc)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reopen: %w", err)
	}
	if _, err := s.Find(context.Background(), g.NodeIDs()[0]); err != nil {
		s.Close()
		return nil, nil, 0, fmt.Errorf("first query: %w", err)
	}
	return s, g, time.Since(start), nil
}

// removeStore deletes a store file and its WAL directory.
func removeStore(path string) {
	os.Remove(path)
	os.RemoveAll(path + ".wal")
}

// storeBytes is the on-disk footprint of a store: data file plus WAL
// directory. The node and spatial indexes are rebuilt in memory at
// open and have no bytes on disk.
func storeBytes(path string) int64 {
	var total int64
	if info, err := os.Stat(path); err == nil {
		total = info.Size()
	}
	return total + dirBytes(path+".wal")
}

// medianOf returns the median of vals (0 with none).
func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration returns the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = d.Seconds()
	}
	return medianOf(vals)
}

// scratchDir makes a private directory for one run under out.
func scratchDir(out, name string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "run-"+name+"-")
}

func storePath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("store%d.ccam", i))
}
