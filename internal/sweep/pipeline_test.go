package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/trace"
)

// mergeGrid is the multi-axis grid the pipeline tests shard and merge: 2
// scenarios x 3 seeds x 2 overrides = 12 cells, with a Drive hook that
// samples a series so the wire format carries series too.
func mergeGrid() Grid {
	return Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     SeedRange(7, 3),
		Days:      2,
		Overrides: []Override{
			{Name: "nominal"},
			{Name: "weak-batteries", Apply: func(top *deploy.Topology) {
				top.Faults = append(top.Faults, deploy.Fault{Kind: deploy.FaultBatterySoC, Value: 0.25})
			}},
		},
		Drive: func(c Cell, d *deploy.Deployment) ([]Metric, []*trace.Series, error) {
			base := firstBase(d)
			s, _ := trace.Sample(d.Sim, 6*time.Hour, "base-volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			return nil, []*trace.Series{s}, d.RunDays(c.Days)
		},
	}
}

func TestShardPartitionsThePlan(t *testing.T) {
	plan, err := Plan(mergeGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 3, 5, len(plan) + 3} {
		seen := map[int]int{}
		for i := 0; i < m; i++ {
			cells, err := Shard(plan, i, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				if c.Index%m != i {
					t.Fatalf("m=%d shard %d holds cell %d", m, i, c.Index)
				}
				seen[c.Index]++
			}
		}
		if len(seen) != len(plan) {
			t.Fatalf("m=%d shards cover %d of %d cells", m, len(seen), len(plan))
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("m=%d cell %d appears in %d shards", m, idx, n)
			}
		}
	}
}

func TestShardValidation(t *testing.T) {
	plan := []Cell{{Index: 0}}
	for _, c := range []struct{ i, m int }{{0, 0}, {0, -1}, {-1, 2}, {2, 2}, {5, 3}} {
		if _, err := Shard(plan, c.i, c.m); err == nil {
			t.Errorf("Shard(plan, %d, %d) accepted", c.i, c.m)
		}
	}
}

func TestFingerprintSeparatesGrids(t *testing.T) {
	g := mergeGrid()
	plan, err := Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(g, plan)
	if fp == "" || len(fp) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex chars", fp)
	}
	other := g
	other.Seeds = SeedRange(8, 3)
	otherPlan, err := Plan(other)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(other, otherPlan) == fp {
		t.Fatal("different seed axes fingerprint identically")
	}
	// An override is identified by its name, so renaming one is a
	// different plan even though the cell count and order are unchanged.
	renamed := g
	renamed.Overrides = append([]Override{{Name: "nominal-2"}}, g.Overrides[1:]...)
	renamedPlan, err := Plan(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(renamed, renamedPlan) == fp {
		t.Fatal("differently named overrides fingerprint identically")
	}
}

// The tentpole acceptance test: running the grid in one process and
// running it as 3 shards — each partial carried across the JSON wire
// format — then merging must produce byte-identical String(), CSV and
// JSON output.
func TestMergeEqualsSingleProcess(t *testing.T) {
	g := mergeGrid()
	full, err := Run(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalCells != len(full.Cells) {
		t.Fatalf("full run incomplete: %d of %d cells", len(full.Cells), full.TotalCells)
	}
	const m = 3
	parts := make([]*Summary, m)
	for i := 0; i < m; i++ {
		part, err := RunShardWith(g, LocalRunner{Workers: 2}, i, m)
		if err != nil {
			t.Fatal(err)
		}
		if part.TotalCells == len(part.Cells) {
			t.Fatalf("shard %d claims to be complete", i)
		}
		// Round-trip each partial through the wire format, exactly as a
		// distributed campaign would.
		var buf bytes.Buffer
		if err := part.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if parts[i], err = ReadSummary(&buf); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeSummaries(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalCells != len(merged.Cells) {
		t.Fatalf("merged summary incomplete: %d of %d cells", len(merged.Cells), merged.TotalCells)
	}
	if merged.String() != full.String() {
		t.Errorf("merged String() differs from single-process run:\n--- merged\n%s\n--- full\n%s", merged, full)
	}
	type encoder struct {
		name  string
		write func(*Summary, *bytes.Buffer) error
	}
	for _, enc := range []encoder{
		{"CSV", func(s *Summary, b *bytes.Buffer) error { return s.WriteCSV(b) }},
		{"JSON", func(s *Summary, b *bytes.Buffer) error { return s.WriteJSON(b) }},
	} {
		var mb, fb bytes.Buffer
		if err := enc.write(merged, &mb); err != nil {
			t.Fatal(err)
		}
		if err := enc.write(full, &fb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mb.Bytes(), fb.Bytes()) {
			t.Errorf("merged %s differs from single-process run:\n--- merged\n%s\n--- full\n%s",
				enc.name, mb.String(), fb.String())
		}
	}
}

// Merging one complete summary is the identity.
func TestMergeSingleCompleteSummary(t *testing.T) {
	full, err := Run(mergeGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MergeSummaries(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Groups, again.Groups) || full.String() != again.String() {
		t.Fatal("merging a single complete summary changed it")
	}
}

func TestMergeFailureModes(t *testing.T) {
	g := mergeGrid()
	shard := func(i, m int) *Summary {
		t.Helper()
		part, err := RunShardWith(g, LocalRunner{Workers: 2}, i, m)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	s0, s1, s2 := shard(0, 3), shard(1, 3), shard(2, 3)

	t.Run("no parts", func(t *testing.T) {
		if _, err := MergeSummaries(); err == nil {
			t.Fatal("merge of nothing accepted")
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		_, err := MergeSummaries(s0, s2)
		if err == nil || !strings.Contains(err.Error(), "missing shard") {
			t.Fatalf("err = %v, want missing-shard", err)
		}
		if !strings.Contains(err.Error(), "4 of 12 cells absent") {
			t.Fatalf("err = %v, want a count of the absent cells", err)
		}
	})
	t.Run("overlapping shards", func(t *testing.T) {
		_, err := MergeSummaries(s0, s1, s2, s1)
		if err == nil || !strings.Contains(err.Error(), "overlapping shards") {
			t.Fatalf("err = %v, want overlapping-shards", err)
		}
	})
	t.Run("mismatched fingerprints", func(t *testing.T) {
		other := g
		other.Seeds = SeedRange(100, 3)
		o0, err := RunShardWith(other, LocalRunner{Workers: 2}, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, err = MergeSummaries(s0, s1, o0)
		if err == nil || !strings.Contains(err.Error(), "different grid") {
			t.Fatalf("err = %v, want different-grid fingerprint error", err)
		}
	})
	t.Run("unstamped summary", func(t *testing.T) {
		_, err := MergeSummaries(&Summary{})
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("err = %v, want no-fingerprint error", err)
		}
	})
	t.Run("nil part", func(t *testing.T) {
		if _, err := MergeSummaries(s0, nil); err == nil {
			t.Fatal("nil part accepted")
		}
	})
	t.Run("index outside plan", func(t *testing.T) {
		bad := *s0
		bad.Cells = append([]CellResult{}, s0.Cells...)
		bad.Cells[0].Cell.Index = 99
		_, err := MergeSummaries(&bad, s1, s2)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("err = %v, want outside-plan error", err)
		}
	})
}

// The wire format closes the loop: WriteJSON -> ReadSummary -> WriteJSON
// is byte-identical, for full and partial summaries alike.
func TestWireRoundTripByteIdentical(t *testing.T) {
	full, err := Run(mergeGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := RunShardWith(mergeGrid(), LocalRunner{Workers: 2}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sum := range []*Summary{full, part} {
		var first bytes.Buffer
		if err := sum.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadSummary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := decoded.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("wire round trip not byte-identical:\n--- first\n%s\n--- second\n%s",
				first.String(), second.String())
		}
	}
}

func TestCellsAt(t *testing.T) {
	plan, err := Plan(mergeGrid())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := CellsAt(plan, []int{5, 0, 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 || cells[0].Index != 5 || cells[1].Index != 0 || cells[2].Index != 11 {
		t.Fatalf("CellsAt returned %v", cells)
	}
	if _, err := CellsAt(plan, []int{0, len(plan)}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := CellsAt(plan, []int{-1}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := CellsAt(plan, []int{3, 3}); err == nil {
		t.Error("duplicate index accepted")
	}
}
