package ccam_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ccam"
	"ccam/internal/server"
)

// TestEverySeriesIsDocumented is the drift gate of README's series
// table: every ccam_* series a store and the server in front of it
// register must be named in a row of that table, which says what
// question it answers (`<name>` in a documented name stands for an
// operation). A series nobody can be told how to read is deleted, not
// exported. The store is the one with the most to register — file
// backed, logged, reorganizing, reopened — after the golden workload.
func TestEverySeriesIsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []*regexp.Regexp
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `ccam_") {
			continue
		}
		names := strings.SplitN(line[1:], "|", 2)[0] // the row's first cell
		for _, name := range regexp.MustCompile("`(ccam_[a-z_<>]+)`").FindAllStringSubmatch(names, -1) {
			pat := strings.ReplaceAll(regexp.QuoteMeta(name[1]), "<name>", "[a-z_]+")
			documented = append(documented, regexp.MustCompile("^"+pat+"$"))
		}
	}
	if len(documented) < 20 {
		t.Fatalf("found %d documented series in README.md: has the table moved?", len(documented))
	}

	g, err := ccam.RoadMap(ccam.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.ccam")
	opts := ccam.Options{
		PageSize: 2048, PoolPages: 4, Seed: 42, Path: path, WAL: true,
		SyncPolicy: ccam.SyncNone, Metrics: true, TraceCapacity: 16,
	}
	s, err := ccam.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = ccam.OpenPath(path, opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ccam.RunGoldenWorkload(t, s, g, 42)
	if err := s.Poke(); err != nil { // a reorganization round
		t.Fatal(err)
	}
	server.New(server.Options{Store: s}) // registers its series in the store's registry

	var series map[string]any
	if err := json.Unmarshal([]byte(s.Metrics().String()), &series); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range series {
		known := false
		for _, re := range documented {
			if re.MatchString(name) {
				known = true
				break
			}
		}
		if !known {
			missing = append(missing, name)
		}
	}
	if len(series) < 100 {
		t.Fatalf("the registry holds only %d series: is the store instrumented?", len(series))
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Fatalf("%d registered series have no row in README.md's series table (document the question each answers, or delete it):\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}
