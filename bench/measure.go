package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config sets one benchmark run. The CLI sets the seed and the run length;
// the sizes are the workloads' own and change only in tests.
type config struct {
	Seed    int64
	Seconds float64
	// Seeds is the campaign grids' seed count, Stations the fleet size,
	// Days a horizon override for the campaign grids and the replayed
	// scenarios (0 = their defaults).
	Seeds, Stations, Days int
	// MinIters is the least number of timed iterations (of each kind, when
	// traced); SetupRuns how often the set-up and warm-up are repeated.
	MinIters, SetupRuns int
	// Work is the directory for the runs' temporary files.
	Work string
	// Digests is the pinned output digest file; Update rewrites it.
	Digests string
	Update  bool
}

func defaultConfig() config {
	return config{
		Seed: 42, Seconds: 10,
		Seeds: 64, Stations: 1000,
		MinIters: 3, SetupRuns: 3,
		Work:    filepath.Join(".bench_build", "work"),
		Digests: filepath.Join("bench", "testdata", "digests.json"),
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: what ran, on what, and how it checked.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	SetupRuns  int     `json:"setup_runs"`
	Warmups    int     `json:"warmup_iterations"`
	Iterations int     `json:"iterations"`
	Traced     int     `json:"traced_iterations"`
	OpSamples  int     `json:"op_samples"`
	Items      string  `json:"items"`
	// Digest is the SHA-256 over every output of an iteration, identical
	// for every iteration of a correct run.
	Digest   string         `json:"digest"`
	Pinned   string         `json:"pinned"`
	Failures []string       `json:"failures,omitempty"`
	Ledger   *ledgerSummary `json:"ledger,omitempty"`
}

// ledgerSummary is the traced run's account of one iteration's wall time:
// each layer's self time, their sum, and what no layer span covers.
type ledgerSummary struct {
	Layers       map[string]float64 `json:"layers_s"`
	LayersSum    float64            `json:"layers_sum_s"`
	Unattributed float64            `json:"unattributed_s"`
	Wall         float64            `json:"wall_s"`
	Tolerance    float64            `json:"tolerance"`
	Within       bool               `json:"within_tolerance"`
}

// ledgerTolerance is the largest share of wall time the layer spans may
// leave unattributed.
const ledgerTolerance = 0.05

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "items_per_s", "op_s_p50", "max_rss_mb"}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = func() []string {
	names := []string{
		"sweep.plan_s", "sweep.execute_s", "sweep.cells_simulated",
		"sweep.cell_s_p50", "sweep.cell_s_p99", "sweep.pool_busy_ratio",
		"sweep.reduce_s", "sweep.encode_s", "sweep.artifact_bytes",
		"rescache.open_s", "rescache.get_us_p50", "rescache.get_us_p99",
		"rescache.hit_ratio", "rescache.put_us_p50", "rescache.put_s",
		"distrib.shards", "distrib.retries", "distrib.shard_rtt_s_p50",
		"distrib.shard_rtt_s_p99", "distrib.wire_bytes_up", "distrib.wire_bytes_down",
		"distrib.serve_s_p50", "distrib.worker_busy_ratio", "distrib.checkpoint_s",
		"deploy.build_s", "deploy.build_alloc_mb",
		"simenv.events", "simenv.ns_per_event",
		"evlog.observe_ns", "evlog.bytes_per_record", "evlog.read_s", "evlog.verify_s",
		"runtime.alloc_mb", "runtime.gc_cycles",
	}
	for _, l := range layerSpans {
		names = append(names, "ledger."+l+"_s")
	}
	return append(names, "ledger.unattributed_s", "ledger.unattributed_ratio", "ledger.wall_s", "trace_overhead")
}()

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "items_per_s":
		return "items/s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s_p"):
		return "s"
	case strings.Contains(name, "_us_p"):
		return "us"
	case strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio") || name == "trace_overhead":
		return "ratio"
	}
	return "count"
}

// measure sets a workload up, warms it, times whole iterations for
// cfg.Seconds and checks every iteration's outputs. A traced run
// alternates traced and untraced iterations, so the tracing overhead is
// measured in the same process. On error the returned result holds the
// counts so far and Correct is false.
func measure(w workload, cfg config, tr *tracer) (report, result, error) {
	rep := report{
		Workload: w.name, Seed: cfg.Seed, Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds: cfg.Seconds, SetupRuns: cfg.SetupRuns, Warmups: 1, Items: w.items,
	}
	res := result{Metrics: map[string]metric{}}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return rep, res, err
	}
	work, err := os.MkdirTemp(cfg.Work, w.name+"-")
	if err != nil {
		return rep, res, err
	}
	defer os.RemoveAll(work)

	var chk checker
	count := func(o outcome) {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	// Each set-up ends with one untimed warm-up iteration, so lazy state
	// is built before timing; setup_s counts both.
	var setups []float64
	var j *job
	for k := 0; k < cfg.SetupRuns; k++ {
		if j != nil {
			j.close()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", k))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return rep, res, err
		}
		t0 := time.Now()
		if j, err = w.setup(cfg, dir); err != nil {
			return rep, res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		o, err := j.iterate(nil)
		setups = append(setups, time.Since(t0).Seconds())
		count(o)
		if err != nil {
			j.close()
			return rep, res, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		for _, so := range j.setupOuts {
			count(so)
			chk.see("set-up", so)
		}
		chk.see("warm-up", o)
	}
	defer j.close()

	var walls, tracedWalls, rates, ops, rss []float64
	var layers []map[string]float64
	start := time.Now()
	for n := 0; ; n++ {
		if time.Since(start).Seconds() >= cfg.Seconds && len(walls) >= cfg.MinIters &&
			(tr == nil || len(layers) >= cfg.MinIters) {
			break
		}
		var itr *tracer
		if tr != nil && n%2 == 1 {
			itr = tr
		}
		if err := resetPeakRSS(); err != nil {
			return rep, res, err
		}
		o, err := j.iterate(itr)
		count(o)
		if err != nil {
			return rep, res, fmt.Errorf("%s iteration %d: %w", w.name, n, err)
		}
		chk.see(fmt.Sprintf("iteration %d", n), o)
		if itr != nil {
			layers = append(layers, tr.layerValues(o.wall, poolWorkers))
			tracedWalls = append(tracedWalls, o.wall.Seconds())
			continue
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return rep, res, err
		}
		rss = append(rss, peak)
		walls = append(walls, o.wall.Seconds())
		rates = append(rates, float64(o.items)/o.wall.Seconds())
		for _, op := range o.ops {
			ops = append(ops, op.Seconds())
		}
	}
	rep.Iterations, rep.Traced, rep.OpSamples = len(walls), len(layers), len(ops)
	rep.Digest = chk.digest
	rep.Pinned, err = chk.pin(w.pin, cfg)
	if err != nil {
		return rep, res, err
	}
	rep.Failures = chk.failures

	if tr == nil {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["items_per_s"] = metric{median(rates), unitOf("items_per_s")}
		res.Metrics["op_s_p50"] = metric{median(ops), "s"}
		res.Metrics["max_rss_mb"] = metric{median(rss), "MiB"}
	} else {
		for _, name := range perLayer {
			var vs []float64
			for _, l := range layers {
				vs = append(vs, l[name])
			}
			v := median(vs)
			if strings.HasPrefix(name, "ledger.") {
				// Means, not medians, so the layer rows add up to the wall.
				v = mean(vs)
			}
			res.Metrics[name] = metric{v, unitOf(name)}
		}
		wall := res.Metrics["ledger.wall_s"].Value
		un := res.Metrics["ledger.unattributed_s"].Value
		res.Metrics["ledger.unattributed_ratio"] = metric{un / wall, "ratio"}
		res.Metrics["trace_overhead"] = metric{median(tracedWalls)/median(walls) - 1, "ratio"}
		lg := &ledgerSummary{Layers: map[string]float64{}, Unattributed: un, Wall: wall, Tolerance: ledgerTolerance}
		for _, l := range layerSpans {
			if s := res.Metrics["ledger."+l+"_s"].Value; s > 0 {
				lg.Layers[l] = s
				lg.LayersSum += s
			}
		}
		lg.Within = un < ledgerTolerance*wall
		rep.Ledger = lg
	}
	res.Correct = len(chk.failures) == 0 && res.Failed == 0
	return rep, res, nil
}

// checker holds every iteration to the first one's outputs.
type checker struct {
	digest   string
	files    map[string]string
	failures []string
}

func (c *checker) see(stage string, o outcome) {
	d := digestOf(o.files)
	if c.digest == "" {
		c.digest, c.files = d, o.files
		return
	}
	if d != c.digest {
		c.failures = append(c.failures, fmt.Sprintf("%s: outputs differ from the first run's (digest %s, want %s)", stage, d, c.digest))
	}
}

// digestOf folds a set of output digests into one, in name order.
func digestOf(files map[string]string) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %s\n", n, files[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedFile is bench/testdata/digests.json: the outputs' SHA-256 at one
// configuration, by pin group and output name.
type pinnedFile struct {
	Seed     int64                        `json:"seed"`
	Seeds    int                          `json:"seeds"`
	Stations int                          `json:"stations"`
	Outputs  map[string]map[string]string `json:"outputs"`
}

// pin checks the outputs against the pinned digests when the run's
// configuration is the pinned one, or rewrites them under cfg.Update.
func (c *checker) pin(group string, cfg config) (string, error) {
	var p pinnedFile
	data, err := os.ReadFile(cfg.Digests)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &p); err != nil {
			return "", fmt.Errorf("%s: %w", cfg.Digests, err)
		}
	case !errors.Is(err, fs.ErrNotExist) || !cfg.Update:
		return "", err
	}
	same := p.Seed == cfg.Seed && p.Seeds == cfg.Seeds && p.Stations == cfg.Stations && cfg.Days == 0
	if cfg.Update {
		if !same {
			p = pinnedFile{Seed: cfg.Seed, Seeds: cfg.Seeds, Stations: cfg.Stations}
		}
		if p.Outputs == nil {
			p.Outputs = map[string]map[string]string{}
		}
		p.Outputs[group] = c.files
		out, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(cfg.Digests, append(out, '\n'), 0o644); err != nil {
			return "", err
		}
		return "updated", nil
	}
	if !same {
		return fmt.Sprintf("not checked: pinned at seed %d", p.Seed), nil
	}
	want, ok := p.Outputs[group]
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf("no pinned digests for %q in %s", group, cfg.Digests))
		return "missing", nil
	}
	if digestOf(want) != c.digest {
		for name, d := range c.files {
			if want[name] != d {
				c.failures = append(c.failures, fmt.Sprintf("%s: SHA-256 %s, pinned %s", name, d, want[name]))
			}
		}
		if len(want) != len(c.files) {
			c.failures = append(c.failures, fmt.Sprintf("%d outputs, %d pinned", len(c.files), len(want)))
		}
		return "mismatch", nil
	}
	return "match", nil
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size (Linux clear_refs), so peakRSSMiB reads the peak of
// the iteration that follows, not of the whole run: a run's maximum is an
// extreme value that moves with GC timing, a median of iteration peaks
// does not.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the peak resident set size since the last reset.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile interpolates linearly between the closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles are Python's statistics.quantiles(xs, n=4), the exclusive
// method, which the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	n, m := 4, len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), at(3)
}
