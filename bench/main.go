// Command bench is the end-to-end benchmark of the Glacsweb reproduction.
// It times five workloads — the sweep campaign on a cold cache, on a warm
// cache and over two loopback workers, a 1000-station fleet, and the five
// scenarios recorded and replayed through the event log — checks that
// their outputs are byte-identical across iterations and against pinned
// digests, and prints every metric by name and unit. See README.md.
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-update]
//	bash bench/run.sh compare PARENT-RUN... CHANGE-RUN...
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := defaultConfig()
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "all", "workload to run ("+strings.Join(names, ", ")+"), or all of them")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "seed of every workload's inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", cfg.Seconds, "host seconds of timed iterations per workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	fs.BoolVar(&cfg.Update, "update", false, "rewrite the pinned output digests in "+cfg.Digests+" from this run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.Seconds < 0 {
		fs.Usage()
		return 2
	}
	if *name == "all" {
		return runAll(cfg, *trace, *spans, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	rep, res, err := measure(w, cfg, tr)
	code := 0
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		res.Correct = false
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(stderr, "bench %s: %s\n", w.name, f)
	}
	if !res.Correct {
		code = 1
	}
	if rep.Ledger != nil {
		printLedger(stderr, rep)
	}
	if tr != nil && *spans != "" {
		if err := tr.writeSpans(*spans); err != nil {
			fmt.Fprintf(stderr, "bench: write spans: %v\n", err)
			code = 1
		}
	}
	for _, line := range []any{rep, res} {
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	return code
}

// runAll runs every workload in a child process of its own, so each one's
// peak memory is its own, and checks that the three campaign workloads
// wrote the same artifacts.
func runAll(cfg config, trace int, spans string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	campaignDigest := ""
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if spans != "" {
			args = append(args, "-spans", strings.TrimSuffix(spans, ".json")+"."+w.name+".json")
		}
		if cfg.Update {
			args = append(args, "-update")
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench %s: %v\n", w.name, err)
			code = 1
		}
		runs, err := parseRuns(&out)
		if err != nil || len(runs) != 1 {
			fmt.Fprintf(stderr, "bench %s: no result (%v)\n", w.name, err)
			code = 1
			continue
		}
		if w.pin != "campaign" {
			continue
		}
		if campaignDigest == "" {
			campaignDigest = runs[0].Report.Digest
		} else if runs[0].Report.Digest != campaignDigest {
			fmt.Fprintf(stderr, "bench %s: artifacts differ from campaign_cold's (digest %s, want %s)\n",
				w.name, runs[0].Report.Digest, campaignDigest)
			code = 1
		}
	}
	return code
}

// runOutput is one workload's report and result, as a run prints them.
type runOutput struct {
	Report report
	Result result
}

// parseRuns reads a run's standard output: each report line is followed by
// its result line. Other lines are skipped.
func parseRuns(r io.Reader) ([]runOutput, error) {
	var runs []runOutput
	var cur *report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var keys map[string]json.RawMessage
		if json.Unmarshal(line, &keys) != nil {
			continue
		}
		switch {
		case keys["workload"] != nil:
			cur = new(report)
			if err := json.Unmarshal(line, cur); err != nil {
				return nil, err
			}
		case keys["metrics"] != nil && cur != nil:
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, err
			}
			runs = append(runs, runOutput{Report: *cur, Result: res})
			cur = nil
		}
	}
	return runs, sc.Err()
}

// printLedger prints the traced run's ledger: each layer's self time per
// iteration, their sum, and the unattributed remainder against the wall.
func printLedger(w io.Writer, rep report) {
	lg := rep.Ledger
	fmt.Fprintf(w, "ledger %s: mean of %d traced iterations\n", rep.Workload, rep.Traced)
	layers := make([]string, 0, len(lg.Layers))
	for l := range lg.Layers {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return lg.Layers[layers[i]] > lg.Layers[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "  %-16s %10.4f s  %5.1f%%\n", l, lg.Layers[l], 100*lg.Layers[l]/lg.Wall)
	}
	fmt.Fprintf(w, "  %-16s %10.4f s  %5.1f%%\n", "sum of layers", lg.LayersSum, 100*lg.LayersSum/lg.Wall)
	fmt.Fprintf(w, "  %-16s %10.4f s  %5.1f%%\n", "unattributed", lg.Unattributed, 100*lg.Unattributed/lg.Wall)
	fmt.Fprintf(w, "  %-16s %10.4f s\n", "wall", lg.Wall)
	verdict := "under"
	if !lg.Within {
		verdict = "NOT under"
	}
	fmt.Fprintf(w, "  unattributed share is %s the %.0f%% tolerance\n", verdict, 100*lg.Tolerance)
}
