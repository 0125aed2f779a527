package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden from the current code")

// goldenIDs are the experiments whose quick, seed-1 tables are fully
// deterministic. E20 and E24–E32 are left out: they report wall-clock
// columns (throughput, latency percentiles, timings), so two runs of the
// same code differ.
var goldenIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
	"E21", "E22", "E23",
}

// TestGoldenTables renders each deterministic experiment table and
// compares it byte for byte with testdata/<ID>.golden: a refactor that
// changes any count, verdict or routing cost shows up here. Regenerate
// after an intended change with `make golden`.
func TestGoldenTables(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if _, err := tab.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s table differs from %s:\n--- got ---\n%s--- want ---\n%s", id, path, got.Bytes(), want)
			}
		})
	}
}
