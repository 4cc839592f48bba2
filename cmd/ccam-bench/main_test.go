package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccam/internal/bench"
	"ccam/internal/graph"
)

func tinySetup() bench.Setup {
	opts := graph.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 12, 12
	return bench.Setup{MapOpts: opts, Seed: 3}
}

// TestRunEachExperiment iterates the experiment table: every entry
// that -exp all runs must print its marker, so an experiment added to
// the table without one fails here.
func TestRunEachExperiment(t *testing.T) {
	markers := map[string]string{
		"fig5":                 "Figure 5",
		"table5":               "Table 5",
		"fig6":                 "Figure 6",
		"fig7":                 "Figure 7",
		"ablation-partitioner": "Ablation A1",
		"ablation-buffer":      "Ablation A2",
		"ablation-scale":       "Ablation A3",
		"ablation-search":      "Ablation A4",
		"ablation-lazy":        "Ablation A5",
		"ablation-topology":    "Ablation A6",
		"ablation-mixed":       "Ablation A7",
		"ablation-spatial":     "Ablation A8",
	}
	cfg := config{setup: tinySetup(), parallel: 2}
	for _, e := range experiments {
		if !e.inAll {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			marker, ok := markers[e.name]
			if !ok {
				t.Fatalf("experiment %q is part of -exp all but has no marker in this test", e.name)
			}
			var buf bytes.Buffer
			if err := run(&buf, e.name, cfg); err != nil {
				t.Fatalf("run(%s): %v", e.name, err)
			}
			out := buf.String()
			if !strings.Contains(out, "road map:") {
				t.Fatal("missing workload banner")
			}
			if !strings.Contains(out, marker) {
				t.Fatalf("output missing %q:\n%s", marker, out)
			}
		})
	}
}

func TestRunScaleExperiment(t *testing.T) {
	// ablation-scale builds its own maps; keep the sizes tiny.
	var buf bytes.Buffer
	res, err := bench.RunAblationScale(tinySetup(), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Ablation A3") {
		t.Fatal("scale output missing marker")
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "nope", config{setup: tinySetup()})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error names every valid value, from the same table.
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Fatalf("error %q does not list %q", err, e.name)
		}
	}
}

func TestRunMutationExperiment(t *testing.T) {
	// A tiny sweep keeps the fsync count low; the point here is the
	// plumbing (WAL store, Apply path, metrics), not the speedup.
	var buf bytes.Buffer
	g, err := tinySetup().Network()
	if err != nil {
		t.Fatal(err)
	}
	cfg := mutationConfig{MaxWriters: 2, OpsPerWriter: 8, Seed: 3}
	if err := runMutation(&buf, g, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Durable mutation throughput") {
		t.Fatalf("missing marker:\n%s", out)
	}
	if !strings.Contains(out, "writers") || !strings.Contains(out, "fsyncs") {
		t.Fatalf("missing sweep table:\n%s", out)
	}
}

func TestRunQueryExperiment(t *testing.T) {
	var buf bytes.Buffer
	g, err := tinySetup().Network()
	if err != nil {
		t.Fatal(err)
	}
	// check enforces the 30% prediction gate and the distinct-path
	// floor, so a pass here is the acceptance assertion itself.
	if err := runQueryExp(&buf, g, 3, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"CCAM-QL planner", "btree-point", "pag-scan", "successor-chain", "check: ok",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPaperArtifactRoundTrip: -json writes the cells of the experiments
// run, -check against that file passes, and a single value nudged in
// the file fails the check with the cell named.
func TestPaperArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paper.json")
	cfg := config{setup: tinySetup(), jsonPath: path}
	var buf bytes.Buffer
	if err := run(&buf, "fig5", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cells to "+path) {
		t.Fatalf("no artifact written:\n%s", buf.String())
	}
	check := config{setup: tinySetup(), check: true, artifact: path}
	buf.Reset()
	if err := run(&buf, "fig5", check); err != nil {
		t.Fatalf("check against the run's own artifact: %v\n%s", err, buf.String())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art, err := bench.ReadPaperArtifact(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	art.Rows[0].Value = math.Nextafter(art.Rows[0].Value, 2)
	var out bytes.Buffer
	if err := art.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, "fig5", check); err == nil {
		t.Fatal("check passed against a nudged artifact")
	}
	if want := "fig5/ccam-s/block=512/crr"; !strings.Contains(buf.String(), want) {
		t.Fatalf("the difference does not name %s:\n%s", want, buf.String())
	}
}
