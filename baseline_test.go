package ccam_test

import (
	"context"
	"reflect"
	"testing"

	"ccam"
	"ccam/internal/bench"
)

// TestBaselines: the paper's comparison methods (DFS-AM, BFS-AM,
// WDFS-AM, Grid File) live in internal/bench, not behind the Store. Each
// builds the same public Network a Store does, finds every probed node
// with the record the Store holds, and counts the page traffic it made.
func TestBaselines(t *testing.T) {
	opts := ccam.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 16, 16
	g, err := ccam.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ccam.Open(ccam.Options{PageSize: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	ids := g.NodeIDs()
	probe := []ccam.NodeID{ids[0], ids[len(ids)/2], ids[len(ids)-1]}
	for _, name := range []string{"dfs-am", "bfs-am", "wdfs-am", "grid-file"} {
		m, err := bench.NewMethod(name, 1024, 8, 5)
		if err != nil {
			t.Fatalf("NewMethod(%s): %v", name, err)
		}
		if err := m.Build(g); err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		for _, id := range probe {
			want, err := s.Find(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.File().Find(id)
			if err != nil {
				t.Fatalf("%s: Find(%d): %v", name, id, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Find(%d) = %+v, the Store holds %+v", name, id, got, want)
			}
		}
		if io := m.File().DataIO(); io.Reads+io.Writes == 0 {
			t.Fatalf("%s: no page traffic counted after Build and Find", name)
		}
	}
}
