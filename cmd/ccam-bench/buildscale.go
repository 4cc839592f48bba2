package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ccam/internal/bench"
)

// parseSizes turns the -sizes flag ("4096,16384,65536") into node
// counts; an empty flag selects the experiment's defaults.
func parseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// runBuildScale runs the build-scale sweep, prints the table, and
// optionally writes the machine-readable JSON (-json) and enforces the
// regression gates (-check): no page may be over its budget,
// parallel-ratiocut must reproduce the serial placement, multilevel CRR
// must not fall more than 0.02 below serial at every size, and
// multilevel must not be slower than serial at the largest size.
func runBuildScale(w io.Writer, setup bench.Setup, sizesFlag, jsonPath string, workers int, check bool) error {
	sizes, err := parseSizes(sizesFlag)
	if err != nil {
		return err
	}
	res, err := bench.RunBuildScale(bench.BuildScaleConfig{
		Setup:   setup,
		Sizes:   sizes,
		Workers: workers,
	})
	if err != nil {
		return err
	}
	res.Print(w)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	if check {
		if err := res.Check(1.0, 0.02); err != nil {
			return err
		}
		fmt.Fprintln(w, "check passed: no page over budget, deterministic placement, multilevel CRR no more than 0.02 below serial, multilevel no slower than serial")
	}
	return nil
}
