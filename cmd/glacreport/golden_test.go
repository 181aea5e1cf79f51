package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment tables")

// goldenNames names the golden file of every `glacreport exp` ID at
// seed 42, so each experiment's output is pinned byte for byte: the
// paper's tables and figures (t*, f*), the x-series claims and ext1. Any
// drift in a model constant, the climate, the protocols or the table
// renderer shows up here.
var goldenNames = map[string]string{
	"t1":   "t1-components",
	"t2":   "t2-power-states",
	"f3":   "f3-architecture",
	"f4":   "f4-daily-flow",
	"f5":   "f5-diurnal-voltage",
	"f6":   "f6-conductivity",
	"x1":   "x1-lifetime",
	"x2":   "x2-relay-vs-gprs",
	"x3":   "x3-bulk-fetch",
	"x4":   "x4-watchdog",
	"x5":   "x5-sync-lag",
	"x6":   "x6-recovery",
	"x7":   "x7-survival",
	"x8":   "x8-update",
	"x9":   "x9-fleet",
	"ext1": "ext1-priority",
}

// TestGoldenExperimentTables runs each experiment into a buffer and
// compares its output against its golden file. Regenerate deliberately with:
//
//	go test ./cmd/glacreport -run TestGoldenExperimentTables -update
func TestGoldenExperimentTables(t *testing.T) {
	exps := experiments(42)
	if len(exps) != len(goldenNames) {
		t.Fatalf("%d experiments, %d golden names: give every experiment a golden", len(exps), len(goldenNames))
	}
	for _, e := range exps {
		name, ok := goldenNames[e.id]
		if !ok {
			t.Fatalf("experiment %s has no golden name", e.id)
		}
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := e.run(&out); err != nil {
				t.Fatalf("experiment failed: %v", err)
			}
			got := out.String()
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s diverged from its golden table.\n--- got:\n%s--- want:\n%s"+
					"If the change is intentional, regenerate with: go test ./cmd/glacreport -run TestGoldenExperimentTables -update",
					name, got, want)
			}
		})
	}
}
