// Package cliutil is the subcommand plumbing cmd/glacsim and
// cmd/glacreport share: dispatch to one flag.FlagSet per subcommand, the
// flag groups several subcommands register (scenario, result cache,
// output encoding), and the usage-error type main maps to exit code 2,
// distinct from runtime failures (exit 1).
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/deploy"
	"repro/internal/evlog"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

// UsageError marks a bad command line.
type UsageError struct{ Msg string }

func (e UsageError) Error() string { return e.Msg }

// Usagef returns a formatted UsageError.
func Usagef(format string, a ...any) error {
	return UsageError{Msg: fmt.Sprintf(format, a...)}
}

// IsUsage reports whether err is (or wraps) a UsageError.
func IsUsage(err error) bool {
	var ue UsageError
	return errors.As(err, &ue)
}

// Fail prints the error to stderr under the tool's name and exits: usage
// errors exit 2, everything else exits 1.
func Fail(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if IsUsage(err) {
		os.Exit(2)
	}
	os.Exit(1)
}

// Command is one subcommand of a tool.
type Command struct {
	Name string
	// Args is the positional-argument synopsis, e.g. "FILE..."; empty
	// means the subcommand takes none.
	Args    string
	Summary string
	// Flags registers the subcommand's flags on its own FlagSet and
	// returns the function that runs it on the positional arguments.
	Flags func(fs *flag.FlagSet) func(args []string) error
}

// Run dispatches args to the subcommand args[0] names, parsed on a fresh
// ContinueOnError FlagSet, so a flag another subcommand owns is simply
// undefined. A missing or unknown subcommand, a bad flag and any usage
// error the subcommand returns come back as a UsageError that carries
// the usage text; -h prints the subcommand's usage and succeeds.
func Run(tool string, cmds []Command, args []string) error {
	if len(args) == 0 {
		return Usagef("missing subcommand\n%s", listing(tool, cmds))
	}
	for _, c := range cmds {
		if c.Name != args[0] {
			continue
		}
		fs := flag.NewFlagSet(tool+" "+c.Name, flag.ContinueOnError)
		fs.SetOutput(io.Discard) // Run reports parse errors itself, once.
		run := c.Flags(fs)
		err := fs.Parse(args[1:])
		switch {
		case errors.Is(err, flag.ErrHelp):
			fmt.Println(usage(fs, c.Args))
			return nil
		case err != nil:
			err = Usagef("%v", err)
		case c.Args == "" && fs.NArg() > 0:
			err = Usagef("unexpected arguments %q", fs.Args())
		default:
			err = run(fs.Args())
		}
		if IsUsage(err) {
			return Usagef("%v\n%s", err, usage(fs, c.Args))
		}
		return err
	}
	return Usagef("unknown subcommand %q\n%s", args[0], listing(tool, cmds))
}

// listing is the tool-level usage: one line per subcommand.
func listing(tool string, cmds []Command) string {
	var b strings.Builder
	fmt.Fprintf(&b, "usage: %s COMMAND [flags] [args]; '%s COMMAND -h' lists a command's flags", tool, tool)
	for _, c := range cmds {
		fmt.Fprintf(&b, "\n  %-9s %s", c.Name, c.Summary)
	}
	return b.String()
}

// usage is a subcommand's synopsis followed by its flag defaults.
func usage(fs *flag.FlagSet, args string) string {
	var b strings.Builder
	b.WriteString("usage: " + fs.Name())
	flags := false
	fs.VisitAll(func(*flag.Flag) { flags = true })
	if flags {
		b.WriteString(" [flags]")
	}
	if args != "" {
		b.WriteString(" " + args)
	}
	b.WriteString("\n")
	fs.SetOutput(&b)
	fs.PrintDefaults()
	return strings.TrimRight(b.String(), "\n")
}

// isSet reports whether the named flag was given on the command line.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// Logf narrates progress on stderr, keeping stdout for the artifacts.
func Logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
}

// Scenario is the scenario flag group: what a run or a sweep simulates.
type Scenario struct {
	Name                   string
	Seed                   int64
	Days, Stations, Probes int
	Start                  string
	SpecialFirst           bool
}

// ScenarioFlags registers the scenario group on fs.
func ScenarioFlags(fs *flag.FlagSet) *Scenario {
	s := &Scenario{}
	fs.StringVar(&s.Name, "scenario", "as-deployed-2008", "registered scenario name (see list); a sweep takes a comma-separated list")
	fs.Int64Var(&s.Seed, "seed", 42, "simulation seed (a sweep's first seed)")
	fs.IntVar(&s.Days, "days", 0, "simulated days to run (0 = the scenario's default horizon)")
	fs.IntVar(&s.Stations, "stations", 0, "fleet size for parameterised scenarios (fleet-N)")
	fs.IntVar(&s.Probes, "probes", 0, "per-base probe cohort size (0 = scenario default)")
	fs.StringVar(&s.Start, "start", "", "start date override (YYYY-MM-DD; empty = scenario default)")
	fs.BoolVar(&s.SpecialFirst, "special-first", false, "apply the §VI special-before-upload fix on every station")
	return s
}

// Check rejects negative sizes and horizons.
func (s *Scenario) Check() error {
	if s.Days < 0 || s.Stations < 0 || s.Probes < 0 {
		return Usagef("-days, -stations and -probes must be >= 0")
	}
	return nil
}

// Output is the output flag group: the encoding of a sweep summary and
// the file it goes to.
type Output struct{ Enc, File string }

// OutputFlags registers the output group on fs.
func OutputFlags(fs *flag.FlagSet) *Output {
	o := &Output{}
	fs.StringVar(&o.Enc, "out", "text", "output encoding: text, csv, cells-csv, groups-csv or json")
	fs.StringVar(&o.File, "o", "", "write the output to a file instead of stdout (needs -out)")
	return o
}

// Check validates the encoding and requires an explicit -out with -o:
// -o alone silently wrote text files that look like failed CSV exports.
func (o *Output) Check(fs *flag.FlagSet) error {
	switch o.Enc {
	case "text", "csv", "cells-csv", "groups-csv", "json":
	default:
		return Usagef("unknown -out encoding %q (text, csv, cells-csv, groups-csv or json)", o.Enc)
	}
	if o.File != "" && !isSet(fs, "out") {
		return Usagef("-o needs an explicit -out encoding")
	}
	return nil
}

// CacheEnv is the environment variable supplying a default result-cache
// directory when -cache is not given — the way an operator points every
// tool on a box at one shared cache without editing each invocation.
const CacheEnv = "GLACSWEB_CACHE"

// Cache is the result-cache flag group.
type Cache struct {
	Dir   string
	Off   bool
	MaxMB int
}

// CacheFlags registers the cache group on fs.
func CacheFlags(fs *flag.FlagSet) *Cache {
	c := &Cache{}
	fs.StringVar(&c.Dir, "cache", "", "result cache directory (default $"+CacheEnv+"): serve already-simulated cells from disk")
	fs.BoolVar(&c.Off, "no-cache", false, "ignore $"+CacheEnv+" and simulate every cell")
	fs.IntVar(&c.MaxMB, "cache-max-mb", 0, "result cache size bound in MiB, LRU-evicted (0 = unbounded)")
	return c
}

// Open opens the result cache the flags select; nil means caching is
// off. A remote run consults the workers' caches, and a recording run
// must simulate every cell to have events to record, so neither opens a
// local cache, and an explicit -cache with either is a usage error.
func (c *Cache) Open(remote, recording bool) (*rescache.DiskCache, error) {
	if c.Dir != "" && remote {
		return nil, Usagef("-cache caches local execution; with -remote give the workers -cache instead")
	}
	if c.Dir != "" && recording {
		return nil, Usagef("-record-dir needs every cell simulated; it cannot combine with -cache")
	}
	dir, err := ResolveCacheDir(c.Dir, c.Off)
	if err != nil || dir == "" || remote || recording {
		return nil, err
	}
	return rescache.Open(dir, rescache.Options{MaxBytes: int64(c.MaxMB) << 20, Logf: Logf})
}

// LogCacheStats prints the post-run cache counters on stderr, so the
// summary on stdout stays byte-identical to an uncached run.
func LogCacheStats(c *rescache.DiskCache) {
	st := c.Stats()
	Logf("cache %s: %d hits, %d misses, %d stores, %d evictions (%d entries, %d bytes)",
		c.Dir(), st.Hits, st.Misses, st.Stores, st.Evictions, c.Len(), c.SizeBytes())
}

// ResolveCacheDir resolves the -cache/-no-cache flag pair into the
// result-cache directory to open, or "" for no cache. An explicit -cache
// DIR wins; otherwise CacheEnv supplies the default. -no-cache turns
// caching off even under the environment default — which is why
// combining it with an explicit -cache is a usage error rather than a
// precedence puzzle.
func ResolveCacheDir(dir string, noCache bool) (string, error) {
	if noCache {
		if dir != "" {
			return "", Usagef("-cache and -no-cache contradict each other")
		}
		return "", nil
	}
	if dir != "" {
		return dir, nil
	}
	return os.Getenv(CacheEnv), nil
}

// ParseWorkerList parses the -remote flag the CLIs share: a
// comma-separated list of worker addresses ("host:port" or full URLs).
// Empty input means no workers (nil, no error); a non-empty input that
// yields no addresses is an error. Duplicate addresses — compared after
// trailing-slash normalisation, so "host:8080" and "host:8080/" collide —
// are a usage error: each address gets its own dispatch loop, so a
// doubled host would silently pull double the shards.
func ParseWorkerList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var workers []string
	seen := map[string]bool{}
	for _, addr := range strings.Split(s, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		canon := strings.TrimRight(addr, "/")
		if seen[canon] {
			return nil, Usagef("worker %s appears twice in %q — each address gets one dispatch loop, list it once", canon, s)
		}
		seen[canon] = true
		workers = append(workers, addr)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("no worker addresses in %q", s)
	}
	return workers, nil
}

// RecordTo creates path and attaches an event-log writer with header h
// to d's simulator. finish seals the log and closes the file.
func RecordTo(path string, h evlog.Header, d *deploy.Deployment) (w *evlog.Writer, finish func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("create event log: %w", err)
	}
	if w, err = evlog.NewWriter(f, h); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	w.Attach(d.Sim)
	return w, func() error {
		werr := w.Close()
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}, nil
}

// RecordCells sets g.Record so each simulated cell's event log lands in
// dir as cell-NNNN.evlog, named by global plan index so shard runs
// recording into one directory never collide. Each header is h with the
// cell's coordinates and the plan fingerprint filled in, so an evdiff
// across record directories can tell logs of different grids apart.
func RecordCells(g *sweep.Grid, dir string, h evlog.Header) error {
	plan, err := sweep.Plan(*g)
	if err != nil {
		return err
	}
	h.Fingerprint = sweep.Fingerprint(*g, plan)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create record dir: %w", err)
	}
	g.Record = func(c sweep.Cell, d *deploy.Deployment) (func() error, error) {
		h := h
		h.Scenario, h.Seed, h.Stations, h.Probes, h.Days = c.Scenario, c.Seed, c.Stations, c.Probes, c.Days
		_, finish, err := RecordTo(filepath.Join(dir, fmt.Sprintf("cell-%04d.evlog", c.Index)), h, d)
		return finish, err
	}
	return nil
}
