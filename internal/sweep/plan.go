// The planner: Plan validates a Grid and enumerates its cross-product into
// the ordered cell list the rest of the pipeline works from, Shard slices a
// plan deterministically for distributed execution, and Fingerprint hashes
// a plan so partial summaries from different processes can prove they came
// from the same grid before a merge.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// Cell identifies one point of the grid cross-product. Index is the cell's
// global position in the fixed enumeration order (scenario, then seed, then
// stations, then probes, then override), independent of worker count and
// shard split.
type Cell struct {
	Index    int
	Scenario string
	Seed     int64
	Stations int
	Probes   int
	Override string
	// Days is the resolved horizon: the grid's Days if set, else the
	// scenario's default.
	Days int
}

// Label renders the cell for tables: scenario, seed and whichever axes
// are in play.
func (c Cell) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d", c.Scenario, c.Seed)
	if c.Stations > 0 {
		fmt.Fprintf(&b, " stations=%d", c.Stations)
	}
	if c.Probes > 0 {
		fmt.Fprintf(&b, " probes=%d", c.Probes)
	}
	if c.Override != "" {
		fmt.Fprintf(&b, " ov=%s", c.Override)
	}
	return b.String()
}

// maxPlanCells bounds the plan Plan will enumerate. A grid arrives from
// the network in a shard request, and a few kilobytes of axis values can
// multiply into billions of cells; the largest grid any CLI default, test
// or benchmark builds is a few hundred cells.
const maxPlanCells = 1 << 20

// Plan validates the grid and enumerates its cross-product in the fixed
// order: scenario (outer), seed, stations, probes, override (inner). The
// returned slice is the full plan; Shard slices it for distributed
// execution.
func Plan(g Grid) ([]Cell, error) {
	if len(g.Scenarios) == 0 {
		return nil, fmt.Errorf("sweep: grid has no scenarios")
	}
	if len(g.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: grid has no seeds")
	}
	if g.Days < 0 {
		return nil, fmt.Errorf("sweep: negative horizon %d", g.Days)
	}
	// Size the plan before enumerating it, one factor at a time so the
	// product cannot overflow on the way to the bound.
	size := 1
	for _, n := range []int{len(g.Scenarios), len(g.Seeds),
		max(len(g.Stations), 1), max(len(g.Probes), 1), max(len(g.Overrides), 1)} {
		if size > maxPlanCells/n {
			return nil, fmt.Errorf("sweep: grid has more than %d cells", maxPlanCells)
		}
		size *= n
	}
	// Every axis must be duplicate-free: a repeated scenario, seed, fleet
	// size, cohort size or override would enumerate the same configuration
	// twice, silently inflating the group's N and skewing the stddev fold.
	if i := firstRepeat(g.Scenarios); i < len(g.Scenarios) {
		return nil, fmt.Errorf("sweep: duplicate scenario %q on the scenario axis", g.Scenarios[i])
	}
	if i := firstRepeat(g.Seeds); i < len(g.Seeds) {
		return nil, fmt.Errorf("sweep: duplicate seed %d on the seed axis", g.Seeds[i])
	}
	if i := firstRepeat(g.Stations); i < len(g.Stations) {
		return nil, fmt.Errorf("sweep: duplicate fleet size %d on the stations axis", g.Stations[i])
	}
	if i := firstRepeat(g.Probes); i < len(g.Probes) {
		return nil, fmt.Errorf("sweep: duplicate cohort size %d on the probes axis", g.Probes[i])
	}
	ovNames := make([]string, len(g.Overrides))
	for i, ov := range g.Overrides {
		ovNames[i] = ov.Name
	}
	// Scanning in axis order, an unnamed override before the first repeat
	// is the first fault.
	dup := firstRepeat(ovNames)
	if i := slices.Index(ovNames[:dup], ""); i >= 0 {
		return nil, fmt.Errorf("sweep: override %d needs a name", i)
	}
	if dup < len(ovNames) {
		return nil, fmt.Errorf("sweep: duplicate override name %q", ovNames[dup])
	}
	stations := g.Stations
	if len(stations) == 0 {
		stations = []int{0}
	}
	probes := g.Probes
	if len(probes) == 0 {
		probes = []int{0}
	}
	if len(ovNames) == 0 {
		ovNames = []string{""}
	}
	// Resolve every scenario before sizing the plan, so a grid naming one
	// this binary lacks is refused before its cells are allocated.
	horizons := make([]int, len(g.Scenarios))
	for i, name := range g.Scenarios {
		s, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("sweep: scenario %q not registered (have: %v)", name, scenario.Names())
		}
		horizons[i] = s.Horizon(scenario.Params{Days: g.Days})
	}
	// Check each (scenario, stations, probes) point of the grid against
	// the run it names, without building its topology: a fleet size a
	// scenario does not build would otherwise plan cells that each fail
	// alone, and the run would succeed with no result. The axes are
	// duplicate-free, so each point is checked once, whatever the seeds.
	for _, name := range g.Scenarios {
		for _, n := range stations {
			for _, p := range probes {
				r := scenario.Run{Scenario: name, Params: scenario.Params{Stations: n, Probes: p}}
				if err := r.Check(); err != nil {
					return nil, fmt.Errorf("sweep: grid point %s stations=%d probes=%d: %w", name, n, p, err)
				}
			}
		}
	}
	cells := make([]Cell, 0, size)
	for i, name := range g.Scenarios {
		days := horizons[i]
		for _, seed := range g.Seeds {
			for _, n := range stations {
				for _, p := range probes {
					for _, ov := range ovNames {
						cells = append(cells, Cell{
							Index: len(cells), Scenario: name, Seed: seed,
							Stations: n, Probes: p, Override: ov, Days: days,
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// Shard returns shard i of m of a plan: the cells whose global index is
// congruent to i mod m. The slice is strided rather than contiguous so that
// expensive outer-axis values (a long-horizon scenario, a big fleet) spread
// across shards instead of landing on one. Shards partition the plan: every
// cell is in exactly one shard, and any m >= 1 works, including m larger
// than the plan (some shards are then empty).
func Shard(plan []Cell, i, m int) ([]Cell, error) {
	if m < 1 {
		return nil, fmt.Errorf("sweep: shard count %d < 1", m)
	}
	if i < 0 || i >= m {
		return nil, fmt.Errorf("sweep: shard index %d outside [0,%d)", i, m)
	}
	var cells []Cell
	for _, c := range plan {
		if c.Index%m == i {
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// CellsAt selects the plan cells at the given global indices, in the given
// order. Out-of-range and duplicate indices are descriptive errors — a
// shard request naming a cell twice or beyond the plan is a protocol bug,
// never something to paper over.
func CellsAt(plan []Cell, indices []int) ([]Cell, error) {
	cells := make([]Cell, 0, len(indices))
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= len(plan) {
			return nil, fmt.Errorf("sweep: cell index %d outside the %d-cell plan", idx, len(plan))
		}
		if seen[idx] {
			return nil, fmt.Errorf("sweep: cell index %d requested twice", idx)
		}
		seen[idx] = true
		cells = append(cells, plan[idx])
	}
	return cells, nil
}

// ParseShardSpec parses the "i/m" shard notation the CLIs share: "" means
// the whole grid (shard 0 of 1); anything else must be two integers with
// 0 <= i < m.
func ParseShardSpec(s string) (i, m int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ms, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad shard %q: want i/m (e.g. 0/3)", s)
	}
	if i, err = strconv.Atoi(is); err != nil {
		return 0, 0, fmt.Errorf("bad shard index in %q: %v", s, err)
	}
	if m, err = strconv.Atoi(ms); err != nil {
		return 0, 0, fmt.Errorf("bad shard count in %q: %v", s, err)
	}
	if m < 1 {
		return 0, 0, fmt.Errorf("bad shard %q: count must be >= 1", s)
	}
	if i < 0 || i >= m {
		return 0, 0, fmt.Errorf("bad shard %q: index outside [0,%d)", s, m)
	}
	return i, m, nil
}

// firstRepeat returns the index of the first axis value that repeats an
// earlier one, or len(vals) when the axis is duplicate-free.
func firstRepeat[T comparable](vals []T) int {
	seen := make(map[T]bool, len(vals))
	for i, v := range vals {
		if seen[v] {
			return i
		}
		seen[v] = true
	}
	return len(vals)
}

// Fingerprint returns a short stable hash of a plan — every cell's full
// identity — recorded on each partial summary so Merge can refuse to fold
// shards of different grids, and keying every result-cache entry. It
// identifies the declarative cell set, so every value that shapes a cell
// must be part of that set: an axis value, or the name of the override
// that applies it. Behavioural hooks
// (Override.Apply, Drive, Record) cannot be hashed; a hook may
// only interpret what the plan already names, which keeps them identical
// across processes running the same binary.
func Fingerprint(g Grid, plan []Cell) string {
	h := sha256.New()
	fmt.Fprintf(h, "cells=%d days=%d\n", len(plan), g.Days)
	// %q on the string axes: a name containing the separator must not make
	// two different plans hash identically. The `""|0s` slots are the
	// removed weather and probe-lifetime axes at their zero values, kept
	// so every fingerprint (and so every cache entry and shard file) from
	// before their removal still matches.
	for _, c := range plan {
		fmt.Fprintf(h, "%d|%q|%d|%d|%d|\"\"|0s|%q|%d\n",
			c.Index, c.Scenario, c.Seed, c.Stations, c.Probes, c.Override, c.Days)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
