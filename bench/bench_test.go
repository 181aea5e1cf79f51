package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig runs every workload at a size that takes a fraction of a
// second: 2 seeds per campaign grid, a 20-station fleet, 2-day horizons,
// one set-up and one timed iteration.
func tinyConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.Seeds, cfg.Stations, cfg.Days = 2, 20, 2
	cfg.Seconds, cfg.MinIters, cfg.SetupRuns = 0, 1, 1
	cfg.Work = t.TempDir()
	cfg.Digests = filepath.Join("testdata", "digests.json")
	return cfg
}

// TestWorkloadsSmoke runs all five workloads end to end and checks that
// each prints every end-to-end metric and that the three campaign paths
// write the same artifact bytes.
func TestWorkloadsSmoke(t *testing.T) {
	cfg := tinyConfig(t)
	campaignDigest := ""
	for _, w := range workloads {
		rep, res, err := measure(w, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d failures=%v", w.name, res.Correct, res.Failed, res.Attempted, rep.Failures)
		}
		for _, name := range endToEnd {
			if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value", w.name, name, m)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		if !strings.HasPrefix(rep.Pinned, "not checked") {
			t.Errorf("%s: pinned check %q at a non-default size", w.name, rep.Pinned)
		}
		if w.pin != "campaign" {
			continue
		}
		if campaignDigest == "" {
			campaignDigest = rep.Digest
		} else if rep.Digest != campaignDigest {
			t.Errorf("%s: artifacts digest %s, campaign_cold wrote %s", w.name, rep.Digest, campaignDigest)
		}
	}
}

// TestTracingKeepsOutputs runs every workload traced — traced and untraced
// iterations alternate, and all must agree — and checks the outputs match
// an untraced run's byte for byte: observers never change a byte.
func TestTracingKeepsOutputs(t *testing.T) {
	cfg := tinyConfig(t)
	for _, w := range workloads {
		plain, _, err := measure(w, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := newTracer()
		rep, res, err := measure(w, cfg, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkSpansFile(t, w.name, tr)
		if !res.Correct || rep.Traced == 0 || rep.Iterations == 0 {
			t.Fatalf("%s traced: correct=%v traced=%d untraced=%d failures=%v", w.name, res.Correct, rep.Traced, rep.Iterations, rep.Failures)
		}
		if rep.Digest != plain.Digest {
			t.Errorf("%s: traced outputs %s, untraced %s", w.name, rep.Digest, plain.Digest)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		if rep.Ledger == nil {
			t.Errorf("%s: traced run reports no ledger", w.name)
		}
		if w.name == "campaign_cold" {
			// 2 seeds: x5 has 4 cells, x9 and f5 2 each.
			if got := res.Metrics["sweep.cells_simulated"].Value; got != 8 {
				t.Errorf("campaign_cold simulated %v cells per iteration, want 8", got)
			}
		}
	}
}

// checkSpansFile writes the tracer's spans out as -spans does and checks
// that every span names an iteration and, unless it is a root, a parent
// recorded in the same iteration that started before it. (Ends are not
// compared: a worker's serve span can close just after the client has
// read the whole reply; the ledger clamps children to their parent.)
func checkSpansFile(t *testing.T, workload string, tr *tracer) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans written", workload)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Iter == 0 || s.End < s.Start {
			t.Fatalf("%s: malformed span %+v", workload, s)
		}
		if s.Parent == 0 {
			if s.Name != "iteration" {
				t.Errorf("%s: root span %q, want iteration", workload, s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Iter != s.Iter || s.Start < p.Start {
			t.Errorf("%s: span %+v does not follow its parent %+v", workload, s, p)
		}
	}
}

// TestCompareCommand runs compare on run outputs as a run prints them.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opS float64) string {
		rep, _ := json.Marshal(report{Workload: "campaign_warm"})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{
			"setup_s": {2, "s"}, "items_per_s": {256 / opS, "items/s"},
			"op_s_p50": {opS, "s"}, "max_rss_mb": {20, "MiB"},
		}})
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(string(rep)+"\n"+string(res)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var parent, faster, slower []string
	for i := 0; i < 10; i++ {
		jitter := float64(i%3) * 0.005
		parent = append(parent, write(fmt.Sprintf("p%d", i), 1+jitter))
		faster = append(faster, write(fmt.Sprintf("f%d", i), 0.5+jitter))
		slower = append(slower, write(fmt.Sprintf("s%d", i), 1.5+jitter))
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	var out strings.Builder
	if code := compareMain(append([]string{"-spec", spec}, append(parent, faster...)...), &out, io.Discard); code != 0 {
		t.Fatalf("twice as fast: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "better") || strings.Contains(out.String(), "regressed") {
		t.Errorf("twice as fast:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain(append([]string{"-spec", spec}, append(parent, slower...)...), &out, io.Discard); code != 1 {
		t.Fatalf("50%% slower: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("50%% slower:\n%s", out.String())
	}
}

// TestPinnedMismatchFails checks that outputs differing from the pinned
// digests fail the run, and that -update rewrites them.
func TestPinnedMismatchFails(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Digests = filepath.Join(t.TempDir(), "digests.json")
	pinned := pinnedFile{Seed: cfg.Seed, Seeds: cfg.Seeds, Stations: cfg.Stations,
		Outputs: map[string]map[string]string{"fleet_1000": {"result": "0000"}}}
	data, _ := json.Marshal(pinned)
	if err := os.WriteFile(cfg.Digests, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Days = 0
	c := checker{}
	c.see("run", outcome{files: map[string]string{"result": "1111"}})
	if got, err := c.pin("fleet_1000", cfg); err != nil || got != "mismatch" || len(c.failures) == 0 {
		t.Fatalf("pin = %q, %v, failures %v; want a mismatch failure", got, err, c.failures)
	}
	cfg.Update = true
	c = checker{}
	c.see("run", outcome{files: map[string]string{"result": "1111"}})
	if got, err := c.pin("fleet_1000", cfg); err != nil || got != "updated" {
		t.Fatalf("update: %q, %v", got, err)
	}
	cfg.Update = false
	if got, err := c.pin("fleet_1000", cfg); err != nil || got != "match" {
		t.Fatalf("after update: %q, %v", got, err)
	}
}

func TestJudge(t *testing.T) {
	// Parent runs read 100 ± 0.5; a change that is 5% faster in every pair
	// but the ones listed in lose reads 95 there, and 101 in the others.
	runs := func(lose ...int) (parent, change []float64) {
		for i := 0; i < 10; i++ {
			parent = append(parent, 100+float64(i%3)*0.5)
			c := 95.0
			for _, l := range lose {
				if l == i {
					c = 101
				}
			}
			change = append(change, c)
		}
		return parent, change
	}
	p, c := runs(4)
	if v := judge(p, c, true, 0.1); v.Verdict != "better" || v.Wins != 9 {
		t.Errorf("9 of 10 pairs won: %+v, want better", v)
	}
	p, c = runs(4, 7)
	if v := judge(p, c, true, 0.1); v.Verdict != "no-regression" || v.Wins != 8 {
		t.Errorf("8 of 10 pairs won: %+v, want no-regression", v)
	}
	// The same gain on a throughput metric, where higher is better.
	p, c = runs(4)
	for i := range p {
		p[i], c[i] = 1/p[i], 1/c[i]
	}
	if v := judge(p, c, false, 0.1); v.Verdict != "better" {
		t.Errorf("throughput gain: %+v, want better", v)
	}
	// A change whose runs spread wider than the bound is unresolved, even
	// with a better median.
	p, _ = runs()
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 75, 95}
	if v := judge(p, wide, true, 0.1); v.Verdict != "unresolved" {
		t.Errorf("wide spread: %+v, want unresolved", v)
	}
	// A steady change 20% slower regresses past a 10% bound.
	slow := make([]float64, len(p))
	for i := range p {
		slow[i] = p[i] * 1.2
	}
	if v := judge(p, slow, true, 0.1); v.Verdict != "regressed" {
		t.Errorf("20%% slower: %+v, want regressed", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; want 1.5, 4.5", q1, q3)
	}
}

// TestLedgerSplitsOverlap checks that overlapping siblings share their
// common time and that the self times add up to the root's duration.
func TestLedgerSplitsOverlap(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sweep.execute", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "sweep.cell", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "sweep.cell", Start: 30, End: 70},
		{ID: 5, Parent: 4, Name: "rescache.put", Start: 60, End: 70},
	}
	self := ledger(spans)
	want := map[string]float64{
		"iteration":     20,
		"sweep.execute": 20, // 70..90
		// Each cell is credited 30 ns of its 40: alone for 20, half of the
		// 20 shared. The second cell splits its 30 in proportion to its
		// own timeline, in which the put covers 10 of 40 ns.
		"sweep.cell":   30 + 30*30/40.0,
		"rescache.put": 30 * 10 / 40.0,
	}
	total := 0.0
	for name, w := range want {
		if got := self[name] * 1e9; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s self = %v ns, want %v", name, got, w)
		}
		total += self[name] * 1e9
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("self times sum to %v ns, want the root's 100", total)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the code
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i] || m.Unit != unitOf(want[i]) {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), code %s (%s)", kind, i, m.Name, m.Unit, want[i], unitOf(want[i]))
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
