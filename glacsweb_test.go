package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
)

// The facade is for programs outside this module, and it is exactly what
// the Examples and facade tests demonstrate: every exported name in
// glacsweb.go must appear as repro.<Name> in a _test.go file here.
func TestFacadeNamesAreExercised(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "glacsweb.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []*ast.Ident
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported = append(exported, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name)
				case *ast.ValueSpec:
					exported = append(exported, s.Names...)
				}
			}
		}
	}

	used := map[string]bool{}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tests {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "repro" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for _, id := range exported {
		if id.IsExported() && !used[id.Name] {
			unused = append(unused, id.Name)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("%d facade names are used by no Example or facade test; demonstrate or delete them: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// The scenario/fleet surface works end to end through the facade.
func TestFacadeScenarioFleet(t *testing.T) {
	if len(repro.ListScenarios()) < 5 {
		t.Fatalf("only %d scenarios registered", len(repro.ListScenarios()))
	}
	if _, ok := repro.LookupScenario("fleet-N"); !ok {
		t.Fatal("fleet-N not registered")
	}
	d, err := repro.BuildScenario("fleet-N", repro.ScenarioParams{Seed: 1, Stations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunDays(2); err != nil {
		t.Fatal(err)
	}
	res := d.Result()
	if res.Fleet.Stations != 3 || res.Fleet.Runs != 6 {
		t.Fatalf("fleet result %+v", res.Fleet)
	}
	if _, ok := d.Station("ref-01"); !ok {
		t.Fatalf("fleet-N has no ref-01: %v", d.StationNames())
	}
}

// Declarative topologies with faults build through the facade.
func TestFacadeTopologyWithFault(t *testing.T) {
	top := repro.Topology{
		Seed: 4,
		Stations: []repro.StationSpec{
			repro.BaseSpec("b", 1),
			repro.ReferenceSpec("r"),
		},
		Faults: []repro.Fault{{Station: "b", Kind: repro.FaultBatterySoC, Value: 0.3}},
	}
	d, err := repro.Build(top)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := d.Station("b")
	if soc := b.Node().Battery.SoC(); soc > 0.31 {
		t.Fatalf("fault not applied: soc %.2f", soc)
	}
	st, ok := d.Station("r")
	if !ok || st.Role() != repro.RoleReference {
		t.Fatal("named lookup through facade failed")
	}
}

// The sweep export path works end to end through the facade: a Drive
// hook captures a per-cell series and both encoders emit it.
func TestFacadeSweepExport(t *testing.T) {
	sum, err := repro.RunSweep(repro.SweepGrid{
		Scenarios: []string{"dual-base"},
		Seeds:     repro.SeedRange(7, 2),
		Days:      1,
		Drive: func(c repro.SweepCell, d *repro.Deployment) ([]repro.SweepMetric, []*repro.Series, error) {
			base, _ := d.Station("base-east")
			s, _ := repro.SampleSeries(d.Sim, 6*time.Hour, "volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			return nil, []*repro.Series{s}, d.RunDays(c.Days)
		},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range sum.Cells {
		ser, ok := cr.SeriesNamed("volts")
		if !ok {
			t.Fatalf("cell %s missing collected series", cr.Cell.Label())
		}
		if ser.Len() != 5 { // baseline + 4 six-hourly samples over one day
			t.Fatalf("collected %d samples, want 5", ser.Len())
		}
	}
	var csvBuf, jsonBuf strings.Builder
	if err := sum.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := sum.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "dual-base") {
		t.Fatal("CSV export missing cells")
	}
	if !strings.Contains(jsonBuf.String(), `"volts"`) {
		t.Fatal("JSON export missing collected series")
	}
}

func TestFacadeProtocolScenario(t *testing.T) {
	sim := repro.NewSimulator(9, time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC))
	wx := repro.NewWeather(9)
	cfg := repro.DefaultProbeConfig(21)
	cfg.MeanLifetime = 50 * 365 * 24 * time.Hour
	pr := repro.NewProbe(sim, wx, cfg)
	if err := sim.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	ch := repro.NewProbeChannel(sim, wx)
	res := repro.NewNackFetcher().Fetch(sim.Now(), ch, pr, 2*time.Hour, repro.NewFetchState())
	if !res.Complete || len(res.Got) != 48 {
		t.Fatalf("facade fetch: got %d complete=%v err=%v", len(res.Got), res.Complete, res.Err)
	}
}

func TestFacadeUpdateFlow(t *testing.T) {
	ins := repro.NewInstaller()
	a := repro.Artifact{Name: "x", Version: "v1", Payload: []byte("body")}
	if err := ins.Install(a, repro.ManifestFor(a), time.Now(), nil); err != nil {
		t.Fatal(err)
	}
	bad := repro.CorruptInTransit(a, 1, func(int) float64 { return 0 })
	if err := ins.Install(bad, repro.ManifestFor(a), time.Now(), nil); err == nil {
		t.Fatal("corrupt install accepted")
	}
}

func TestFacadeTableIConstants(t *testing.T) {
	if repro.GPRSRateBps != 5000 || repro.RadioRateBps != 2000 {
		t.Fatal("Table I rates wrong")
	}
	if repro.GPRSPowerW != 2.64 || repro.RadioPowerW != 3.96 ||
		repro.GumstixPowerW != 0.9 || repro.GPSPowerW != 3.6 {
		t.Fatal("Table I powers wrong")
	}
}

func TestFacadeCustomNode(t *testing.T) {
	sim := repro.NewSimulator(3, time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))
	wx := repro.NewWeather(3)
	node := repro.NewNode(sim, wx, repro.BaseNodeConfig("custom"))
	if err := sim.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	snap := node.Snapshot()
	if snap.Volts < 11 || snap.Volts > 15 {
		t.Fatalf("implausible voltage %v", snap.Volts)
	}
}

// The networked sweep surface works end to end through the facade: a
// worker served by ServeSweepWorker executes a grid dispatched by a
// SweepRemoteRunner, byte-identical to the local run.
func TestFacadeRemoteSweep(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = repro.ServeSweepWorker(l, 2) }()

	g := repro.SweepGrid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     repro.SeedRange(9, 2),
		Days:      2,
	}
	remote, err := repro.RunSweepOn(g, &repro.SweepRemoteRunner{Workers: []string{l.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	local, err := repro.RunSweep(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if remote.TotalCells != len(remote.Cells) || remote.String() != local.String() {
		t.Fatal("remote sweep differs from the local run")
	}
	// The ci95 fold is visible at the facade too.
	var st repro.SweepStats
	var ok bool
	if st, ok = remote.Groups[0].Stat("runs"); !ok {
		t.Fatal("no runs stat")
	}
	if st.N != 2 || st.CI95 < 0 {
		t.Fatalf("runs stat folded oddly: %+v", st)
	}
}
