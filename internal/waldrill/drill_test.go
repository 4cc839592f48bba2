package waldrill

import "testing"

func TestDrillSmall(t *testing.T) {
	res, err := Run(t.TempDir(), Config{Seed: 11, Ops: 30, Torn: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 30 || res.Batches == 0 {
		t.Fatalf("stream too short: %+v", res)
	}
	// Every record boundary plus the empty log, plus torn cuts.
	if res.CrashPoints <= res.Records {
		t.Fatalf("crash points %d should exceed record count %d (torn cuts)", res.CrashPoints, res.Records)
	}
}

// TestDrill500OpStream is the full-scale recovery proof: a 500-op
// batch stream, a crash at every WAL record boundary plus a torn
// mid-record cut between each pair, and ccam-fsck-clean recovery to
// the exact committed prefix at all of them.
func TestDrill500OpStream(t *testing.T) {
	if testing.Short() {
		t.Skip("500-op drill is ~10s; covered in short mode by TestDrillSmall")
	}
	res, err := Run(t.TempDir(), Config{Seed: 11, Ops: 500, Torn: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 500 {
		t.Fatalf("stream too short: %+v", res)
	}
}

func TestDrillDeterministic(t *testing.T) {
	a, err := Run(t.TempDir(), Config{Seed: 5, Ops: 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(t.TempDir(), Config{Seed: 5, Ops: 60})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
