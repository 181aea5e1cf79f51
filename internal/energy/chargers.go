package energy

import (
	"math"

	"repro/internal/weather"
)

// Charger converts site weather into charging power on the bus. The base
// station carries a 10 W solar panel and a 50 W wind turbine; the reference
// station has a solar panel and a mains charger that is only live while the
// café has power (April–September).
type Charger interface {
	// Name identifies the charger in energy ledgers.
	Name() string
	// OutputW returns the charging power given current conditions.
	OutputW(c weather.Conditions) float64
}

// SolarPanel models a photovoltaic panel. Output scales with irradiance and
// is already extinguished by deep snow inside the weather model.
type SolarPanel struct {
	// RatedW is the panel's rated output at 1000 W/m².
	RatedW float64
	// Derating covers dirt, angle and regulator losses.
	Derating float64
}

var _ Charger = (*SolarPanel)(nil)

// NewSolarPanel returns a panel with the given rating and a default 0.8
// derating factor.
func NewSolarPanel(ratedW float64) *SolarPanel {
	return &SolarPanel{RatedW: ratedW, Derating: 0.8}
}

// Name implements Charger.
func (p *SolarPanel) Name() string { return "solar" }

// OutputW implements Charger.
func (p *SolarPanel) OutputW(c weather.Conditions) float64 {
	return p.RatedW * p.Derating * c.SolarIrradiance / 1000
}

// WindTurbine models a small horizontal-axis turbine with cut-in, rated and
// cut-out speeds. Deep snow and rime ice progressively stop it — the reason
// the Norway architecture could rely on winter wind power but Iceland could
// not.
type WindTurbine struct {
	// RatedW is the output at and above rated wind speed.
	RatedW float64
	// CutInMS, RatedMS, CutOutMS are the usual power-curve speeds, m/s.
	CutInMS, RatedMS, CutOutMS float64
	// SnowStopM is the snow depth at which the turbine is fully stopped.
	SnowStopM float64
}

var _ Charger = (*WindTurbine)(nil)

// NewWindTurbine returns a turbine with the given rating and a power curve
// typical of the deployment's 50 W unit.
func NewWindTurbine(ratedW float64) *WindTurbine {
	return &WindTurbine{
		RatedW:    ratedW,
		CutInMS:   3,
		RatedMS:   12,
		CutOutMS:  25,
		SnowStopM: 2.2,
	}
}

// Name implements Charger.
func (t *WindTurbine) Name() string { return "wind" }

// OutputW implements Charger.
func (t *WindTurbine) OutputW(c weather.Conditions) float64 {
	v := c.WindSpeed
	if v < t.CutInMS || v >= t.CutOutMS {
		return 0
	}
	var frac float64
	if v >= t.RatedMS {
		frac = 1
	} else {
		// Cubic between cut-in and rated.
		x := (v - t.CutInMS) / (t.RatedMS - t.CutInMS)
		frac = x * x * x
	}
	out := t.RatedW * frac
	// Snow/rime progressively stops the machine over the last metre of burial.
	if c.SnowDepthM > t.SnowStopM-1 {
		k := (t.SnowStopM - c.SnowDepthM) / 1.0
		out *= clamp(k, 0, 1)
	}
	return out
}

// MainsCharger models the café mains feed available to the reference
// station only during the tourist season (April–September in the paper).
type MainsCharger struct {
	// RatedW is the charger output while mains is live.
	RatedW float64
	// SeasonStartDay and SeasonEndDay bound the live window (day of year).
	SeasonStartDay, SeasonEndDay int
	// dayOfYear is injected by the bus when sampling; see OutputAt.
	dayOfYear int
}

var _ Charger = (*MainsCharger)(nil)

// NewMainsCharger returns the café charger: live April (day 91) through
// September (day 273).
func NewMainsCharger(ratedW float64) *MainsCharger {
	return &MainsCharger{RatedW: ratedW, SeasonStartDay: 91, SeasonEndDay: 273}
}

// Name implements Charger.
func (m *MainsCharger) Name() string { return "mains" }

// SetDayOfYear tells the charger the current simulated day so OutputW can be
// a pure function of Conditions. The bus calls this before sampling.
func (m *MainsCharger) SetDayOfYear(doy int) { m.dayOfYear = doy }

// OutputW implements Charger.
func (m *MainsCharger) OutputW(weather.Conditions) float64 {
	if m.dayOfYear >= m.SeasonStartDay && m.dayOfYear <= m.SeasonEndDay {
		return m.RatedW
	}
	return 0
}

// CombinedOutputW sums charger outputs for the given conditions.
func CombinedOutputW(chargers []Charger, c weather.Conditions) float64 {
	var sum float64
	for _, ch := range chargers {
		sum += ch.OutputW(c)
	}
	return math.Max(0, sum)
}
