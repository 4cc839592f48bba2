package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness as the served
// workload's echo process (see echo.go).
func TestMain(m *testing.M) {
	if os.Getenv(echoEnv) != "" {
		runEcho()
		return
	}
	os.Exit(m.Run())
}

// appendBytes serializes an op; the determinism test compares streams
// byte for byte.
func (o op) appendBytes(b []byte) []byte {
	b = append(b, byte(o.kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(o.id))
	b = binary.LittleEndian.AppendUint32(b, uint32(o.route))
	for _, v := range []float64{o.rect.Min.X, o.rect.Min.Y, o.rect.Max.X, o.rect.Max.Y} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return append(b, o.query...)
}

// streamBytes serializes the first n ops of one client's stream.
func streamBytes(t *testing.T, m *mix, seed int64, n int) []byte {
	t.Helper()
	gen := newOpGen(m, seed, 0)
	var b []byte
	for i := 0; i < n; i++ {
		b = gen.next().appendBytes(b)
	}
	return b
}

func smokeMix(t *testing.T, seed int64) (*mix, *reference) {
	t.Helper()
	g, err := roadMap(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMix(g, seed, ref)
	if err != nil {
		t.Fatal(err)
	}
	return m, ref
}

func TestSameSeedSameStream(t *testing.T) {
	m1, _ := smokeMix(t, 7)
	m2, _ := smokeMix(t, 7)
	a, b := streamBytes(t, m1, 7, 5000), streamBytes(t, m2, 7, 5000)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different op streams")
	}
	m3, _ := smokeMix(t, 8)
	if bytes.Equal(a, streamBytes(t, m3, 8, 5000)) {
		t.Fatal("two seeds gave the same op stream")
	}
}

func TestSameSeedSameBatches(t *testing.T) {
	batches := func() [][]mutation {
		_, ref := smokeMix(t, 7)
		w := newWriter(ref, 7)
		var out [][]mutation
		for i := 0; i < 50; i++ {
			out = append(out, w.nextBatch())
			w.ack()
		}
		return out
	}
	if !reflect.DeepEqual(batches(), batches()) {
		t.Fatal("the same seed gave two different write streams")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
}

// TestAtRefSpeed checks the arithmetic of scaling to reference speed:
// a segment that ran twice as slow counts half its times and half its
// length, or for a metric that leans half as far, 1/sqrt(2) of them.
func TestAtRefSpeed(t *testing.T) {
	seg := func(ns int64, n int, slow float64) *segment {
		st := new(clientStats)
		for i := 0; i < n; i++ {
			st.record(opFind, ns)
		}
		st.measured = time.Second
		return &segment{read: st, slow: slow}
	}
	segs := []*segment{seg(1000, 100, 1), seg(2000, 50, 2), seg(1500, 75, 1.5), {read: new(clientStats), slow: 1}}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 0.01*want }
	if scaled, raw := atRefSpeed(segs, readOf, opFind, 1); !near(scaled, 1000) || !near(raw, 1500) {
		t.Errorf("atRefSpeed = %v at reference speed, %v as measured; want 1000, 1500", scaled, raw)
	}
	// 225 ops over 1/1 + 1/2 + 1/1.5 seconds at reference speed, over 3
	// seconds as measured; the empty segment measured no time.
	if scaled, raw := rateAtRefSpeed(segs, readOf, 1); !near(scaled, 225/(1+0.5+1/1.5)) || !near(raw, 225.0/3) {
		t.Errorf("rateAtRefSpeed = %v, %v", scaled, raw)
	}
	if scaled, _ := atRefSpeed(segs[1:2], readOf, opFind, 0.5); !near(scaled, 2000/math.Sqrt2) {
		t.Errorf("atRefSpeed with lean 0.5 = %v, want %v", scaled, 2000/math.Sqrt2)
	}
}

// TestCalibratorDrains checks that a stretch is scaled by its own
// slices only.
func TestCalibratorDrains(t *testing.T) {
	c := newCalibrator()
	c.take(3)
	if s := c.slowdown(); s <= 0 {
		t.Errorf("slowdown after three slices = %v", s)
	}
	if s := c.slowdown(); s != 1 {
		t.Errorf("slowdown without a slice = %v, want 1", s)
	}
	if c.kernelTime() <= 0 || c.kernelTime() != 0 {
		t.Error("kernelTime does not reset")
	}
}

// TestEchoProbe starts the echo process (this test binary, see
// TestMain), probes it and stops it.
func TestEchoProbe(t *testing.T) {
	e, err := startEcho(connections)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	rtt, err := e.probe(4000)
	if err != nil || rtt <= 0 {
		t.Errorf("probe = %v ns, %v", rtt, err)
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness's metric
// and workload lists in step.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.matchesHarness(); err != nil {
		t.Error(err)
	}
}

// smokeOptions builds the commit's ccam-serve and returns options for
// the -smoke configuration with one-second windows.
func smokeOptions(t *testing.T) options {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every workload end to end; skipped with -short")
	}
	if raceEnabled {
		t.Skip("timing windows are meaningless under the race detector")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ccam-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ccam-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ccam-serve: %v\n%s", err, out)
	}
	return options{seed: 3, seconds: 1, smoke: true, out: filepath.Join(dir, "out"), serveBin: bin}
}

// TestSmokeAllWorkloads runs all four workloads end to end, untraced
// and traced, and checks that every answer was right, that every
// metric of the mode was reported, that the workloads separate the
// layers, and that the one-client traced counts repeat exactly.
func TestSmokeAllWorkloads(t *testing.T) {
	o := smokeOptions(t)
	traced := map[string]*runResult{}
	for _, w := range workloads {
		r, err := runOne(w, o, smokeScale, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, r.Failed, r.Attempted)
		}
		var line bytes.Buffer
		if err := r.writeDriverLine(&line, endToEnd); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		var parsed driverLine
		if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || !parsed.Correct {
			t.Errorf("%s: driver line %q (%v)", w.Name, line.String(), err)
		}
		for _, d := range endToEnd {
			if r.Metrics[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, r.Metrics[d.Name])
			}
		}

		// The traced run is repeated where its counts must repeat: in
		// process. Over the wire the child's prefetch workers make page
		// reads a matter of timing.
		repeats := 2
		if w.served {
			repeats = 1
		}
		var again *runResult
		for i := 0; i < repeats; i++ {
			tr, err := runOne(w, o, smokeScale, true)
			if err != nil {
				t.Fatalf("%s (traced): %v", w.Name, err)
			}
			if tr.Failed != 0 {
				t.Errorf("%s (traced): %d of %d operations failed", w.Name, tr.Failed, tr.Attempted)
			}
			if err := tr.writeDriverLine(&line, perLayer); err != nil {
				t.Errorf("%s (traced): %v", w.Name, err)
			}
			if again != nil && !w.served {
				for _, k := range []string{"replay_reads", "replay_evictions", "replay_writes", "replay_fsyncs"} {
					if tr.Counts[k] != again.Counts[k] {
						t.Errorf("%s: traced count %s was %d, then %d", w.Name, k, again.Counts[k], tr.Counts[k])
					}
				}
				if a, b := tr.Metrics["netfile.pages_per_route"], again.Metrics["netfile.pages_per_route"]; a != b {
					t.Errorf("%s: netfile.pages_per_route was %v, then %v", w.Name, b, a)
				}
			}
			again = tr
		}
		traced[w.Name] = again
		if _, err := os.Stat(filepath.Join(o.out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}

	// The workloads separate the layers.
	if v := traced["read_resident"].Metrics["storage.reads_per_op"]; v != 0 {
		t.Errorf("read_resident: storage.reads_per_op = %v, want 0", v)
	}
	if v := traced["read_coldpool"].Metrics["storage.reads_per_op"]; v <= 0.5 {
		t.Errorf("read_coldpool: storage.reads_per_op = %v, want > 0.5", v)
	}
	for name, r := range traced {
		if got := r.Metrics["storage.wal_fsyncs_per_batch"] > 0; got != (name == "mixed_rw") {
			t.Errorf("%s: storage.wal_fsyncs_per_batch = %v", name, r.Metrics["storage.wal_fsyncs_per_batch"])
		}
		if got := r.Metrics["wire.encode_req_ns"] > 0 && r.Metrics["server.dispatch_overhead_ns"] != 0; got != (name == "serve_open") {
			t.Errorf("%s: wire.encode_req_ns = %v, server.dispatch_overhead_ns = %v", name,
				r.Metrics["wire.encode_req_ns"], r.Metrics["server.dispatch_overhead_ns"])
		}
	}
}
