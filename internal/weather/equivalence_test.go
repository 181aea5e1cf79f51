package weather

import (
	"math"
	"testing"
	"time"

	"repro/internal/simenv"
)

// referenceModel is the pre-memoization climate model, kept verbatim so the
// cached Model can be proven bit-identical against it. Every method below is
// the original per-sample derivation: no day cache, no same-instant memo,
// every noise value and trig term recomputed on every call. If Sample and
// referenceSample ever disagree in a single bit, the goldens move — so this
// file is the gate the day cache must pass, not a statistical smoke test.
type referenceModel struct {
	seed int64
}

func newReference(seed int64) *referenceModel {
	return &referenceModel{seed: seed}
}

func (m *referenceModel) Sample(ts time.Time) Conditions {
	ts = ts.UTC()
	doy := simenv.DayOfYear(ts)
	hod := simenv.HourOfDay(ts)
	storm := m.stormAt(ts)

	cloud := m.cloudiness(ts)
	if storm {
		cloud = 0.95
	}
	irr := m.clearSkyIrradiance(doy, hod) * (1 - 0.85*cloud)

	snow := m.snowDepth(doy)
	if snow > 1.5 {
		irr *= math.Max(0, 1-(snow-1.5))
	}

	return Conditions{
		SolarIrradiance: irr,
		WindSpeed:       m.windSpeed(ts, storm),
		SnowDepthM:      snow,
		Storm:           storm,
	}
}

func (m *referenceModel) meltIndex(ts time.Time) float64 {
	doy := float64(simenv.DayOfYear(ts.UTC()))
	const (
		onset = 80.0
		peak  = 190.0
		stop  = 285.0
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

func (m *referenceModel) clearSkyIrradiance(doy int, hod float64) float64 {
	elev := solarElevation(latitudeDeg, doy, hod)
	if elev <= 0 {
		return 0
	}
	return peakIrradiance * math.Sin(elev)
}

func (m *referenceModel) cloudiness(ts time.Time) float64 {
	day := refDayIndex(ts)
	a := m.noise("cloud", day)
	b := m.noise("cloud", day+1)
	frac := simenv.HourOfDay(ts) / 24
	base := a*(1-frac) + b*frac
	return clamp(0.25+0.65*base, 0, 1)
}

func (m *referenceModel) windSpeed(ts time.Time, storm bool) float64 {
	day := refDayIndex(ts)
	a := m.noise("wind", day)
	b := m.noise("wind", day+1)
	frac := simenv.HourOfDay(ts) / 24
	base := a*(1-frac) + b*frac
	doy := simenv.DayOfYear(ts)
	seasonal := 1 + 0.35*math.Cos(2*math.Pi*float64(doy)/365.25)
	v := meanWind * seasonal * (0.2 + 2.0*base)
	if storm {
		v = math.Max(v, 18+12*m.noise("gust", day))
	}
	return v
}

func (m *referenceModel) snowDepth(doy int) float64 {
	d := float64(doy)
	const (
		accumStart = 280.0
		accumEnd   = 105.0
		meltEnd    = 200.0
	)
	max := maxSnowDepthM
	switch {
	case d >= accumStart:
		return max * (d - accumStart) / (365 - accumStart + accumEnd)
	case d <= accumEnd:
		return max * (365 - accumStart + d) / (365 - accumStart + accumEnd)
	case d <= meltEnd:
		return max * (1 - (d-accumEnd)/(meltEnd-accumEnd))
	default:
		return 0
	}
}

func (m *referenceModel) stormAt(ts time.Time) bool {
	window := refDayIndex(ts) / 15
	p := clamp(stormsPerMonth/2, 0, 1)
	if m.noise("storm-occur", window) >= p {
		return false
	}
	startOffset := m.noise("storm-start", window) * 12
	length := 1 + m.noise("storm-len", window)*2
	dayInWindow := float64(refDayIndex(ts)%15) + simenv.HourOfDay(ts)/24
	return dayInWindow >= startOffset && dayInWindow < startOffset+length
}

func (m *referenceModel) noise(tag string, k int) float64 {
	return simenv.HashNoise(m.seed, tag, uint64(k))
}

// solarElevation returns the solar elevation angle in radians for the given
// latitude (degrees), day of year and hour of day (UTC ~ solar time at the
// site's longitude, an adequate approximation for an energy model).
// It is the plain solar-geometry formula the memoized Sample caches per
// day.
func solarElevation(latDeg float64, doy int, hod float64) float64 {
	lat := latDeg * math.Pi / 180
	decl := -23.44 * math.Pi / 180 * math.Cos(2*math.Pi*(float64(doy)+10)/365.25)
	hourAngle := (hod - 12) / 24 * 2 * math.Pi
	sinElev := math.Sin(lat)*math.Sin(decl) + math.Cos(lat)*math.Cos(decl)*math.Cos(hourAngle)
	return math.Asin(clamp(sinElev, -1, 1))
}

func refDayIndex(ts time.Time) int {
	return int(ts.UTC().Unix() / 86400)
}

// equivalenceSeeds are the climate seeds the equivalence suite runs
// under: each places the storms and the cloud and wind noise afresh.
var equivalenceSeeds = []int64{1, 7, 9, 11, 13, 42}

// TestSampleMatchesReferenceFullYear is the brute-force-vs-memoized gate:
// a full simulated year sampled at an odd stride (so every hour of day and
// every day-cache slot gets exercised), bit-exact under ==.
func TestSampleMatchesReferenceFullYear(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		m := New(seed)
		ref := newReference(seed)
		start := time.Date(2008, 9, 1, 0, 0, 0, 0, time.UTC)
		end := start.AddDate(1, 0, 0)
		n := 0
		for ts := start; ts.Before(end); ts = ts.Add(37 * time.Minute) {
			got, want := m.Sample(ts), ref.Sample(ts)
			if got != want {
				t.Fatalf("seed %d: Sample(%v) = %+v, reference %+v", seed, ts, got, want)
			}
			n++
		}
		if n < 14000 {
			t.Fatalf("year sweep only took %d samples", n)
		}
	}
}

// TestSampleMatchesReferenceDayBoundaries drills the seams the day cache
// must not break: samples bracketing midnight UTC (the day-index and
// day-of-year increments) and the year wrap, including a leap year's day
// 366 rolling over to day 1.
func TestSampleMatchesReferenceDayBoundaries(t *testing.T) {
	m := New(3)
	ref := newReference(3)
	boundaries := []time.Time{
		time.Date(2008, 11, 5, 0, 0, 0, 0, time.UTC),  // ordinary midnight
		time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC),   // leap-year wrap: doy 366 -> 1
		time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),   // ordinary wrap: doy 365 -> 1
		time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC),   // non-leap February seam
		time.Date(2008, 12, 31, 0, 0, 0, 0, time.UTC), // leap day 366 itself
	}
	offsets := []time.Duration{
		-time.Hour, -time.Minute, -time.Second, 0, time.Second, time.Minute, time.Hour,
	}
	for _, b := range boundaries {
		for _, off := range offsets {
			ts := b.Add(off)
			if got, want := m.Sample(ts), ref.Sample(ts); got != want {
				t.Fatalf("Sample(%v) = %+v, reference %+v", ts, got, want)
			}
		}
	}
}

// TestSampleMatchesReferenceUnderEviction alternates distant days that
// collide in the direct-mapped cache, including days inside a storm window,
// so states are repeatedly evicted and rebuilt mid-storm. The reference
// result must hold regardless of what the cache just forgot.
func TestSampleMatchesReferenceUnderEviction(t *testing.T) {
	m := New(42) // stormsPerMonth 2 => every window holds a storm
	ref := newReference(42)
	base := time.Date(2008, 10, 3, 0, 0, 0, 0, time.UTC)
	// Stride by multiples of dayCacheSize so consecutive probes hit the
	// same slot, then walk hours within each day to re-enter evicted days.
	for round := 0; round < 40; round++ {
		for _, dayOff := range []int{0, dayCacheSize, 5 * dayCacheSize, 1} {
			day := base.AddDate(0, 0, round+dayOff)
			for h := 0; h < 24; h += 7 {
				ts := day.Add(time.Duration(h) * time.Hour)
				if got, want := m.Sample(ts), ref.Sample(ts); got != want {
					t.Fatalf("Sample(%v) = %+v, reference %+v", ts, got, want)
				}
			}
		}
	}
}

// TestSampleOrderScrambleMatchesReference replays one fortnight in three
// different sampling orders and cross-checks every result against the
// reference: memo state left by one call must never leak into the next.
func TestSampleOrderScrambleMatchesReference(t *testing.T) {
	ref := newReference(21)
	start := time.Date(2009, 2, 10, 0, 0, 0, 0, time.UTC)
	var instants []time.Time
	for i := 0; i < 14*24; i += 5 {
		instants = append(instants, start.Add(time.Duration(i)*time.Hour))
	}
	orders := [][]time.Time{
		instants,
		reversed(instants),
		interleaved(instants),
	}
	for oi, order := range orders {
		m := New(21) // fresh memos per order
		for _, ts := range order {
			if got, want := m.Sample(ts), ref.Sample(ts); got != want {
				t.Fatalf("order %d: Sample(%v) = %+v, reference %+v", oi, ts, got, want)
			}
		}
	}
}

// TestMeltIndexMatchesReference pins MeltIndex (which probes call at lagged
// instants) against the reference over eighteen months.
func TestMeltIndexMatchesReference(t *testing.T) {
	m := New(4)
	ref := newReference(4)
	start := time.Date(2008, 9, 1, 6, 30, 0, 0, time.UTC)
	for d := 0; d < 548; d++ {
		ts := start.AddDate(0, 0, d)
		if got, want := m.MeltIndex(ts), ref.meltIndex(ts); got != want {
			t.Fatalf("MeltIndex(%v) = %v, reference %v", ts, got, want)
		}
	}
}

func reversed(in []time.Time) []time.Time {
	out := make([]time.Time, len(in))
	for i, ts := range in {
		out[len(in)-1-i] = ts
	}
	return out
}

// interleaved deals the instants into a front/back shuffle so adjacent
// calls land in different days and cache slots.
func interleaved(in []time.Time) []time.Time {
	out := make([]time.Time, 0, len(in))
	i, j := 0, len(in)-1
	for i <= j {
		out = append(out, in[i])
		if i != j {
			out = append(out, in[j])
		}
		i++
		j--
	}
	return out
}
