package sweep

import (
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/weather"
)

// A climate is varied per cell by an Override that sets the topology's
// weather: a dead-calm dark config must observably change the cell's
// climate, carry its name on the label and split into its own group.
func TestWeatherAxis(t *testing.T) {
	dark := weather.DefaultConfig(0) // seed 0 defers to the cell's topology seed
	// weather.New fills zero fields with the Iceland defaults, so "almost
	// no sun or wind" is the dimmest expressible climate.
	dark.PeakIrradiance = 1
	dark.MeanWind = 0.01
	g := Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     []int64{3},
		Days:      2,
		Overrides: []Override{
			{Name: "iceland"},
			{Name: "dark-calm", Apply: func(top *deploy.Topology) { top.Weather = dark }},
		},
		Observe: func(c Cell, d *deploy.Deployment) []Metric {
			noon := d.Sim.Now().Add(-12 * time.Hour)
			return []Metric{{Name: "noon-sun", Value: weather.New(d.Topology.Weather).Sample(noon).SolarIrradiance}}
		},
	}
	sum, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (one per climate)", len(sum.Cells))
	}
	sun, _ := sum.Cells[0].Metric("noon-sun")
	darkSun, _ := sum.Cells[1].Metric("noon-sun")
	if sun <= 5 || darkSun > 1 {
		t.Fatalf("climate not applied per cell: iceland noon sun %v, dark-calm %v", sun, darkSun)
	}
	if !strings.Contains(sum.Cells[1].Cell.Label(), "ov=dark-calm") {
		t.Fatalf("cell label %q does not carry the climate override", sum.Cells[1].Cell.Label())
	}
	if len(sum.Groups) != 2 || sum.Groups[1].Override != "dark-calm" {
		t.Fatalf("groups not split by climate: %+v", sum.Groups)
	}
}

// A probe lifetime is varied per cell by an Override that sets the
// fleet-wide mean: an hour-lived cohort must end a two-day run with fewer
// probes alive than a decades-lived one, carry its name on the label and
// split into its own group.
func TestProbeLifetimeAxis(t *testing.T) {
	lifetime := func(d time.Duration) func(*deploy.Topology) {
		return func(top *deploy.Topology) { top.ProbeLifetime = d }
	}
	g := Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     []int64{5},
		Days:      2,
		Overrides: []Override{
			{Name: "hour-lived", Apply: lifetime(time.Hour)},
			{Name: "decades-lived", Apply: lifetime(50 * 365 * 24 * time.Hour)},
		},
	}
	sum, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (one per lifetime)", len(sum.Cells))
	}
	short, _ := sum.Cells[0].Metric("probes-alive")
	long, _ := sum.Cells[1].Metric("probes-alive")
	if short >= long {
		t.Fatalf("hour-lived cohort has %v probes alive, decades-lived %v — lifetime override not applied", short, long)
	}
	if !strings.Contains(sum.Cells[0].Cell.Label(), "ov=hour-lived") {
		t.Fatalf("cell label %q does not carry the lifetime override", sum.Cells[0].Cell.Label())
	}
	if len(sum.Groups) != 2 || sum.Groups[0].Override != "hour-lived" {
		t.Fatalf("groups not split by probe lifetime: %+v", sum.Groups)
	}
}
