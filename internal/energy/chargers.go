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
	ratedW float64 // rated output at 1000 W/m²
}

var _ Charger = (*SolarPanel)(nil)

// solarDerating covers dirt, angle and regulator losses.
const solarDerating float64 = 0.8

// NewSolarPanel returns a panel with the given rating.
func NewSolarPanel(ratedW float64) *SolarPanel {
	return &SolarPanel{ratedW: ratedW}
}

// Name implements Charger.
func (p *SolarPanel) Name() string { return "solar" }

// OutputW implements Charger.
func (p *SolarPanel) OutputW(c weather.Conditions) float64 {
	return p.ratedW * solarDerating * c.SolarIrradiance / 1000
}

// WindTurbine models a small horizontal-axis turbine with cut-in, rated and
// cut-out speeds. Deep snow and rime ice progressively stop it — the reason
// the Norway architecture could rely on winter wind power but Iceland could
// not.
type WindTurbine struct {
	ratedW float64 // output at and above rated wind speed
}

var _ Charger = (*WindTurbine)(nil)

// The power curve of the deployment's 50 W unit.
const (
	// cutInMS, ratedMS and cutOutMS are the usual power-curve speeds, m/s.
	cutInMS  float64 = 3
	ratedMS  float64 = 12
	cutOutMS float64 = 25
	// snowStopM is the snow depth at which the turbine is fully stopped.
	snowStopM float64 = 2.2
)

// NewWindTurbine returns a turbine with the given rating.
func NewWindTurbine(ratedW float64) *WindTurbine {
	return &WindTurbine{ratedW: ratedW}
}

// Name implements Charger.
func (t *WindTurbine) Name() string { return "wind" }

// OutputW implements Charger.
func (t *WindTurbine) OutputW(c weather.Conditions) float64 {
	v := c.WindSpeed
	if v < cutInMS || v >= cutOutMS {
		return 0
	}
	var frac float64
	if v >= ratedMS {
		frac = 1
	} else {
		// Cubic between cut-in and rated.
		x := (v - cutInMS) / (ratedMS - cutInMS)
		frac = x * x * x
	}
	out := t.ratedW * frac
	// Snow/rime progressively stops the machine over the last metre of burial.
	if c.SnowDepthM > snowStopM-1 {
		k := (snowStopM - c.SnowDepthM) / 1.0
		out *= clamp(k, 0, 1)
	}
	return out
}

// MainsCharger models the café mains feed available to the reference
// station only during the tourist season (April–September in the paper).
type MainsCharger struct {
	ratedW float64 // output while mains is live
	// dayOfYear is injected by the bus when sampling; see OutputAt.
	dayOfYear int
}

var _ Charger = (*MainsCharger)(nil)

// The café's live window, as days of the year: April (day 91) through
// September (day 273).
const (
	mainsSeasonStartDay = 91
	mainsSeasonEndDay   = 273
)

// NewMainsCharger returns the café charger with the given rating.
func NewMainsCharger(ratedW float64) *MainsCharger {
	return &MainsCharger{ratedW: ratedW}
}

// Name implements Charger.
func (m *MainsCharger) Name() string { return "mains" }

// SetDayOfYear tells the charger the current simulated day so OutputW can be
// a pure function of Conditions. The bus calls this before sampling.
func (m *MainsCharger) SetDayOfYear(doy int) { m.dayOfYear = doy }

// OutputW implements Charger.
func (m *MainsCharger) OutputW(weather.Conditions) float64 {
	if m.dayOfYear >= mainsSeasonStartDay && m.dayOfYear <= mainsSeasonEndDay {
		return m.ratedW
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
