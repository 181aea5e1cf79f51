package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the least number of parent/change pairs a gain rests on, and
// winShare the share of them the change must win.
const (
	minPairs = 10
	winShare = 0.9
)

// compareMain compares runs of the parent commit with runs of a change:
// the first half of the files are the parent's runs, the second half the
// change's, paired in order. It prints one row per workload and end-to-end
// metric and exits 1 when a metric regressed past its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) < 2 || len(files)%2 != 0 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] PARENT-RUN... CHANGE-RUN... (as many of each)")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *specPath, err)
		return 2
	}
	half := len(files) / 2
	parent, err := loadRuns(files[:half])
	if err == nil {
		var change map[string][]map[string]float64
		if change, err = loadRuns(files[half:]); err == nil {
			return printComparison(stdout, spec, parent, change)
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

// loadRuns reads run outputs into each workload's metric values, one map
// per run, in file order.
func loadRuns(paths []string) (map[string][]map[string]float64, error) {
	out := map[string][]map[string]float64{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		runs, err := parseRuns(f)
		_ = f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(runs) == 0 {
			return nil, fmt.Errorf("%s: no run result", p)
		}
		for _, r := range runs {
			vals := map[string]float64{}
			for name, m := range r.Result.Metrics {
				vals[name] = m.Value
			}
			out[r.Report.Workload] = append(out[r.Report.Workload], vals)
		}
	}
	return out, nil
}

func printComparison(w io.Writer, spec benchSpec, parent, change map[string][]map[string]float64) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-12s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins", "verdict")
	for _, wl := range workloads {
		ps, cs := parent[wl.name], change[wl.name]
		if len(ps) == 0 && len(cs) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			for _, r := range ps {
				if v, ok := r[m.Name]; ok {
					pv = append(pv, v)
				}
			}
			for _, r := range cs {
				if v, ok := r[m.Name]; ok {
					cv = append(cv, v)
				}
			}
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "%-16s %-12s missing on one side\n", wl.name, m.Name)
				code = 1
				continue
			}
			v := judge(pv, cv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-16s %-12s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%% %3d/%-2d  %s\n",
				wl.name, m.Name, v.ParentMed, v.ParentQ1, v.ParentQ3, v.ChangeMed, v.ChangeQ1, v.ChangeQ3,
				100*v.Worse, v.Wins, v.Pairs, v.Verdict)
			if v.Verdict == "regressed" {
				code = 1
			}
		}
	}
	return code
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	ParentMed, ParentQ1, ParentQ3 float64
	ChangeMed, ChangeQ1, ChangeQ3 float64
	// Worse is how much worse the change's median is than the parent's,
	// as a share of the parent's (negative when better).
	Worse       float64
	Wins, Pairs int
	Verdict     string
}

// judge applies the pairing rule. A metric whose run-to-run spread (the
// distance between the quartiles, as a share of the median) is wider than
// its bound on either side is "unresolved", unless every change run reads
// better than every parent run. Otherwise a change median worse by more
// than the bound is "regressed", and a gain is "better" only when at least
// minPairs pairs ran, the change won winShare of them (ties count for
// neither) and the medians differ by more than the parent's own spread.
// Anything else is "no-regression".
func judge(parent, change []float64, lowerBetter bool, bound float64) verdict {
	v := verdict{ParentMed: median(parent), ChangeMed: median(change)}
	v.ParentQ1, v.ParentQ3 = quartiles(parent)
	v.ChangeQ1, v.ChangeQ3 = quartiles(change)
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	v.Worse = (v.ChangeMed - v.ParentMed) / v.ParentMed
	if !lowerBetter {
		v.Worse = -v.Worse
	}
	v.Pairs = min(len(parent), len(change))
	for i := 0; i < v.Pairs; i++ {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := math.Max((v.ParentQ3-v.ParentQ1)/v.ParentMed, (v.ChangeQ3-v.ChangeQ1)/v.ChangeMed)
	switch {
	case spread > bound && allBetter:
		v.Verdict = "better"
	case spread > bound:
		v.Verdict = "unresolved"
	case v.Worse > bound:
		v.Verdict = "regressed"
	case v.Pairs >= minPairs && float64(v.Wins) >= winShare*float64(v.Pairs) &&
		math.Abs(v.ChangeMed-v.ParentMed) > v.ParentQ3-v.ParentQ1:
		v.Verdict = "better"
	default:
		v.Verdict = "no-regression"
	}
	return v
}
