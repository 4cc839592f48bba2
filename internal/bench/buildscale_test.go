package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunBuildScale(t *testing.T) {
	res, err := RunBuildScale(BuildScaleConfig{
		Setup: smallSetup(),
		Sizes: []int{256, 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 sizes x 3 variants", len(res.Rows))
	}
	// The regression gates the CI smoke step relies on must hold even at
	// tiny sizes (speedup is only gated at the largest size, and 0 keeps
	// this test about plumbing, not machine speed).
	if err := res.Check(0, 0.02); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	res.Print(&txt)
	for _, want := range []string{"Build scale", "serial-ratiocut", "parallel-ratiocut", "parallel-multilevel"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("print output missing %q:\n%s", want, txt.String())
		}
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back BuildScaleResult
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || back.PageSize != res.PageSize {
		t.Fatalf("JSON roundtrip mismatch: %d rows, page size %d", len(back.Rows), back.PageSize)
	}
}

func TestBuildScaleCheckCatchesRegressions(t *testing.T) {
	mk := func() *BuildScaleResult {
		return &BuildScaleResult{Rows: []BuildScaleRow{
			{Nodes: 100, Variant: "serial-ratiocut", CRR: 0.8, Pages: 10, Speedup: 1},
			{Nodes: 100, Variant: "parallel-ratiocut", CRR: 0.8, Pages: 10, Speedup: 1},
			{Nodes: 100, Variant: "parallel-multilevel", CRR: 0.79, Pages: 10, Speedup: 3},
		}}
	}
	if err := mk().Check(2, 0.02); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	r := mk()
	r.Rows[1].CRR = 0.81 // nondeterministic parallel path
	if err := r.Check(2, 0.02); err == nil {
		t.Fatal("determinism violation not caught")
	}
	r = mk()
	r.Rows[2].CRR = 0.7 // quality regression
	if err := r.Check(2, 0.02); err == nil {
		t.Fatal("CRR regression not caught")
	}
	r = mk()
	r.Rows[2].CRR = 0.85 // multilevel's full pages ahead of ratio cut
	if err := r.Check(2, 0.02); err != nil {
		t.Fatalf("a higher multilevel CRR rejected: %v", err)
	}
	r = mk()
	r.Rows[2].CRR, r.Rows[2].MaxOverflow = 0.85, 40 // a page over budget
	if err := r.Check(2, 0.02); err == nil {
		t.Fatal("overflowing multilevel page not caught")
	}
	r = mk()
	r.Rows[0].MaxOverflow = 1 // so is any variant's
	if err := r.Check(2, 0.02); err == nil {
		t.Fatal("overflowing ratio-cut page not caught")
	}
	r = mk()
	r.Rows[2].Speedup = 1.5 // performance regression
	if err := r.Check(2, 0.02); err == nil {
		t.Fatal("speedup regression not caught")
	}
	r = mk()
	r.Rows = r.Rows[:2] // missing variant
	if err := r.Check(2, 0.02); err == nil {
		t.Fatal("missing variant not caught")
	}
}
