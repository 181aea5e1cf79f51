// Package weather provides a synthetic but physically plausible climate model
// for the Vatnajökull deployment site (~64°N). It substitutes for the real
// Iceland weather that drove the paper's field results: solar irradiance and
// wind speed feed the charging model, snow depth gates the wind turbine and
// buries antennas, and the melt-water index drives both the
// summer degradation of the probe radio link and the end-of-winter
// conductivity rise shown in the paper's Fig 6.
//
// Sample is a pure function of (seed, time): it derives all stochastic
// texture from hash noise keyed on the day number, so callers may sample any
// instants in any order and always observe the same climate trace for a
// given seed.
//
// Purity is observational, not structural: internally a Model memoizes the
// per-day derived state (noise endpoints, solar declination products,
// seasonal terms, the storm window) in a small day cache, plus the last
// Conditions it returned, because the simulation samples the same day
// hundreds of times and the same instant once per station. The memos hold
// only values that are themselves pure functions of (seed, time), so a
// hit is bit-identical to a recomputation — TestSampleMatchesReference
// pins that against an unmemoized reference over a full simulated year.
// The memos make a Model single-goroutine: confine each Model to the
// simulator it feeds, as every other simulated component already is.
package weather

import (
	"math"
	"time"

	"repro/internal/simenv"
)

// Conditions is an instantaneous sample of site weather.
type Conditions struct {
	// SolarIrradiance is the solar power on a horizontal surface, W/m².
	SolarIrradiance float64
	// WindSpeed at turbine height, m/s.
	WindSpeed float64
	// SnowDepthM is snow depth over the station, metres.
	SnowDepthM float64
	// Storm reports whether a storm is in progress (high wind, no sun).
	Storm bool
}

// The Vatnajökull site's climate. The constants are typed so that every
// product they enter rounds as the float64 arithmetic it replaced.
const (
	// latitudeDeg of the site, ~64.3°N.
	latitudeDeg float64 = 64.3
	// peakIrradiance is clear-sky summer midday irradiance, W/m².
	peakIrradiance float64 = 650
	// meanWind is the annual mean wind speed, m/s.
	meanWind float64 = 7.5
	// maxSnowDepthM is the late-winter snow pack depth, metres.
	maxSnowDepthM float64 = 2.5
	// stormsPerMonth is the expected number of multi-day storms per month.
	stormsPerMonth float64 = 2.0
	// stormP is the per-window storm probability, stormsPerMonth/2
	// clamped to 1.
	stormP = min(stormsPerMonth/2, 1)
)

// dayCacheSize is the number of per-day derived states a Model retains,
// direct-mapped on the day index. Three entries cover the steady state —
// today, plus room for a midnight transition and one out-of-band sampler
// (a lagged probe, a report) — without any eviction bookkeeping that
// could make cache behaviour depend on sampling order.
const dayCacheSize = 3

// dayState is everything Sample needs for one UTC day that does not vary
// within the day: the noise endpoints the intra-day interpolations run
// between, the solar declination products, the seasonal wind term, the
// snow depth, and the day's storm-window decision. Every field is a pure function of (seed, dayIdx), so a
// cached state is indistinguishable from a recomputed one.
type dayState struct {
	valid  bool
	dayIdx int

	dayMod15 float64 // position of this day inside its 15-day storm window

	cloudA, cloudB float64 // cloud noise at day start / next day start
	windA, windB   float64 // wind noise at day start / next day start
	gust           float64 // storm gust noise (only set when stormOccurs)

	snow float64 // snow depth, constant within a day

	sinLatSinDecl float64 // sin(lat)·sin(decl) for this day
	cosLatCosDecl float64 // cos(lat)·cos(decl) for this day

	windSeasonal float64 // 1 + 0.35·cos(2π·doy/365.25)

	stormOccurs          bool    // this day's 15-day window contains a storm
	stormStart, stormEnd float64 // active range in day-in-window units
}

// Model is the site climate for one seed, with small internal
// derived-state memos. Confine each Model to a single goroutine — in
// practice the simulator goroutine that owns the deployment, which is how
// every constructor in this repository already wires it.
type Model struct {
	// seed selects the stochastic texture (storm placement, cloud noise).
	seed int64

	// Latitude trig is independent of time; hoisted out of Sample.
	sinLat, cosLat float64

	// days is the direct-mapped per-day state cache (see dayState).
	days [dayCacheSize]dayState

	// Same-instant memo: callers sample identical timestamps repeatedly
	// (every station's bus ticks at the same instants), so the last
	// returned Conditions short-circuits the whole derivation.
	lastValid bool
	lastNano  int64
	lastCond  Conditions
}

// New constructs the site's climate Model for a seed.
func New(seed int64) *Model {
	lat := latitudeDeg * math.Pi / 180
	return &Model{
		seed:   seed,
		sinLat: math.Sin(lat),
		cosLat: math.Cos(lat),
	}
}

// Sample returns the conditions at time ts. It is deterministic in (seed, ts):
// the memos only ever hold values a cold computation would produce.
//
//glacvet:hotpath
func (m *Model) Sample(ts time.Time) Conditions {
	nano := ts.UnixNano()
	if m.lastValid && nano == m.lastNano {
		return m.lastCond
	}

	day, hod := splitDay(ts)
	st := m.dayStateFor(day)
	frac := hod / 24

	storm := st.stormOccurs &&
		st.dayMod15+frac >= st.stormStart && st.dayMod15+frac < st.stormEnd

	cloud := clamp(0.25+0.65*(st.cloudA*(1-frac)+st.cloudB*frac), 0, 1)
	if storm {
		cloud = 0.95
	}

	// Clear-sky irradiance from solar elevation. The asin/sin pair looks
	// redundant around the cached declination products, but goldens pin
	// the exact float sequence of the original solarElevation-based path
	// (equivalence_test.go).
	hourAngle := (hod - 12) / 24 * 2 * math.Pi
	sinElev := st.sinLatSinDecl + st.cosLatCosDecl*math.Cos(hourAngle)
	elev := math.Asin(clamp(sinElev, -1, 1))
	var clearSky float64
	if elev > 0 {
		clearSky = peakIrradiance * math.Sin(elev)
	}
	irr := clearSky * (1 - 0.85*cloud)

	snow := st.snow
	// Deep snow buries the solar panel (the paper: snow "would even stop"
	// the wind source in Iceland; panels fare no better).
	if snow > 1.5 {
		irr *= math.Max(0, 1-(snow-1.5)) // linearly extinguished by 2.5 m
	}

	// Weibull-ish wind: mean wind scaled by [0.2, 2.2] texture; winter is
	// windier (the seasonal factor is cached per day).
	base := st.windA*(1-frac) + st.windB*frac
	wind := meanWind * st.windSeasonal * (0.2 + 2.0*base)
	if storm {
		wind = math.Max(wind, 18+12*st.gust)
	}

	cond := Conditions{
		SolarIrradiance: irr,
		WindSpeed:       wind,
		SnowDepthM:      snow,
		Storm:           storm,
	}
	m.lastNano, m.lastCond, m.lastValid = nano, cond, true
	return cond
}

// dayStateFor returns the derived state for the given unix day, computing
// and caching it on a miss. Direct mapping keeps lookup branch-free and
// eviction deterministic: which states are resident depends only on the
// day indices sampled, never on wall-clock or insertion order.
//
//glacvet:hotpath
func (m *Model) dayStateFor(dayIdx int) *dayState {
	slot := dayIdx % dayCacheSize
	if slot < 0 {
		slot += dayCacheSize
	}
	st := &m.days[slot]
	if st.valid && st.dayIdx == dayIdx {
		return st
	}
	m.deriveDay(st, dayIdx)
	return st
}

// deriveDay fills st with the per-day derived state for dayIdx. This is the
// slow path: it runs once per (model, day) in steady state — 5–8 HashNoise
// calls and the per-day trig that Sample previously re-derived every tick.
func (m *Model) deriveDay(st *dayState, dayIdx int) {
	doy := time.Unix(int64(dayIdx)*86400, 0).UTC().YearDay()

	st.valid = true
	st.dayIdx = dayIdx
	st.dayMod15 = float64(dayIdx % 15)

	st.cloudA = m.noise("cloud", dayIdx)
	st.cloudB = m.noise("cloud", dayIdx+1)
	st.windA = m.noise("wind", dayIdx)
	st.windB = m.noise("wind", dayIdx+1)

	st.snow = snowDepthAt(maxSnowDepthM, doy)

	decl := -23.44 * math.Pi / 180 * math.Cos(2*math.Pi*(float64(doy)+10)/365.25)
	st.sinLatSinDecl = m.sinLat * math.Sin(decl)
	st.cosLatCosDecl = m.cosLat * math.Cos(decl)

	st.windSeasonal = 1 + 0.35*math.Cos(2*math.Pi*float64(doy)/365.25)

	// Storms are placed deterministically: each ~15-day window contains a
	// storm with probability StormsPerMonth/2, lasting 1-3 days. A window's
	// storm never crosses into the next window (start < 12, length < 3), so
	// the day's window decision is all Sample needs.
	window := dayIdx / 15
	st.stormOccurs = m.noise("storm-occur", window) < stormP
	if st.stormOccurs {
		st.stormStart = m.noise("storm-start", window) * 12 // day in window
		st.stormEnd = st.stormStart + (1 + m.noise("storm-len", window)*2)
		st.gust = m.noise("gust", dayIdx)
	} else {
		st.stormStart, st.stormEnd, st.gust = 0, 0, 0
	}
}

// MeltIndex returns the melt-water index for ts: 0 through deep winter,
// ramping up from early April (day ~95) to a summer plateau, declining
// through autumn. This is the signal behind the paper's Fig 6 conductivity
// rise "at the end of winter".
//
// MeltIndex computes directly rather than through the day cache: probes
// query it at per-probe basal lags, and letting those scattered days evict
// the states the per-tick Sample path lives on would cost more than this
// small closed form.
func (m *Model) MeltIndex(ts time.Time) float64 {
	return meltIndexAt(float64(simenv.DayOfYear(ts.UTC())))
}

func meltIndexAt(doy float64) float64 {
	const (
		onset = 80.0  // late March
		peak  = 190.0 // early July
		stop  = 285.0 // mid October
	)
	switch {
	case doy < onset || doy > stop:
		return 0
	case doy <= peak:
		x := (doy - onset) / (peak - onset)
		return smoothstep(x)
	default:
		x := (stop - doy) / (stop - peak)
		return smoothstep(x)
	}
}

// snowDepthAt models accumulation from October to April and melt May-
// September, as a fraction of the configured maximum depth.
func snowDepthAt(max float64, doy int) float64 {
	d := float64(doy)
	const (
		accumStart = 280.0 // early October
		accumEnd   = 105.0 // mid April (next year)
		meltEnd    = 200.0 // late July
	)
	switch {
	case d >= accumStart: // Oct-Dec: building
		return max * (d - accumStart) / (365 - accumStart + accumEnd)
	case d <= accumEnd: // Jan-Apr: still building
		return max * (365 - accumStart + d) / (365 - accumStart + accumEnd)
	case d <= meltEnd: // Apr-Jul: melting
		return max * (1 - (d-accumEnd)/(meltEnd-accumEnd))
	default: // Aug-Sep: bare
		return 0
	}
}

// noise returns a deterministic uniform [0,1) value keyed on (seed, tag, k).
func (m *Model) noise(tag string, k int) float64 {
	return simenv.HashNoise(m.seed, tag, uint64(k))
}

// splitDay resolves ts to its unix day index and hour-of-day, the two
// coordinates every per-sample term depends on. One integer division
// replaces the three calendar-field lookups the hot path used to make;
// the float construction matches simenv.HourOfDay bit for bit.
func splitDay(ts time.Time) (day int, hod float64) {
	secs := ts.Unix()
	d := secs / 86400
	rem := secs - d*86400
	if rem < 0 { // pre-1970 instants: floor, not trunc
		d--
		rem += 86400
	}
	h := rem / 3600
	min := rem % 3600 / 60
	sec := rem % 60
	return int(d), float64(h) + float64(min)/60 + float64(sec)/3600
}

func smoothstep(x float64) float64 {
	x = clamp(x, 0, 1)
	return x * x * (3 - 2*x)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
