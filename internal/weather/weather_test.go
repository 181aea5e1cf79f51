package weather

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func date(y int, m time.Month, d, h int) time.Time {
	return time.Date(y, m, d, h, 0, 0, 0, time.UTC)
}

func TestSampleDeterministic(t *testing.T) {
	m1 := New(5)
	m2 := New(5)
	ts := date(2009, 3, 14, 15)
	if m1.Sample(ts) != m2.Sample(ts) {
		t.Fatal("same seed, same time gave different conditions")
	}
}

func TestSampleOrderIndependent(t *testing.T) {
	m := New(5)
	a := date(2009, 6, 1, 12)
	b := date(2009, 1, 1, 12)
	first := m.Sample(a)
	_ = m.Sample(b)
	second := m.Sample(a)
	if first != second {
		t.Fatal("sampling another instant changed the trace (Sample must be pure)")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for d := 0; d < 30; d++ {
		ts := date(2009, 5, 1, 12).AddDate(0, 0, d)
		if a.Sample(ts).WindSpeed == b.Sample(ts).WindSpeed {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("seeds 1 and 2 agree on wind %d/30 days; texture not seeded", same)
	}
}

func TestWinterNightHasNoSun(t *testing.T) {
	m := New(1)
	c := m.Sample(date(2009, 1, 5, 0))
	if c.SolarIrradiance != 0 {
		t.Fatalf("midnight January irradiance = %v, want 0", c.SolarIrradiance)
	}
}

func TestSummerMiddayBeatsWinterMidday(t *testing.T) {
	m := New(1)
	var summer, winter float64
	for d := 0; d < 20; d++ {
		summer += m.Sample(date(2009, 6, 10+0, 12).AddDate(0, 0, d)).SolarIrradiance
		winter += m.Sample(date(2009, 1, 5, 12).AddDate(0, 0, d)).SolarIrradiance
	}
	if summer <= winter*3 {
		t.Fatalf("mean summer midday irradiance %v not ≫ winter %v", summer/20, winter/20)
	}
}

func TestDiurnalSolarPeaksNearMidday(t *testing.T) {
	m := New(3)
	day := date(2009, 7, 1, 0)
	best, bestHour := -1.0, -1
	for h := 0; h < 24; h++ {
		c := m.Sample(day.Add(time.Duration(h) * time.Hour))
		if c.SolarIrradiance > best {
			best, bestHour = c.SolarIrradiance, h
		}
	}
	if bestHour < 10 || bestHour > 14 {
		t.Fatalf("solar peak at hour %d, want near midday", bestHour)
	}
}

func TestSnowDeepInLateWinterBareInAugust(t *testing.T) {
	m := New(1)
	late := m.Sample(date(2009, 3, 20, 12)).SnowDepthM
	aug := m.Sample(date(2009, 8, 15, 12)).SnowDepthM
	if late < 1.0 {
		t.Fatalf("late-winter snow %v m, want deep (>1m)", late)
	}
	if aug != 0 {
		t.Fatalf("August snow %v m, want 0", aug)
	}
}

func TestDeepSnowExtinguishesSolar(t *testing.T) {
	m := New(1)
	// Mid-April (day 105) is the peak of the pack: maxSnowDepthM of snow
	// buries the panel completely, even at midday.
	c := m.Sample(date(2009, 4, 15, 12))
	if c.SnowDepthM != maxSnowDepthM || c.SolarIrradiance != 0 {
		t.Fatalf("irradiance %v under %.2fm of snow, want 0 under the full %.1fm pack",
			c.SolarIrradiance, c.SnowDepthM, maxSnowDepthM)
	}
}

func TestMeltIndexZeroInWinterPositiveInSummer(t *testing.T) {
	m := New(1)
	if got := m.MeltIndex(date(2009, 2, 1, 12)); got != 0 {
		t.Fatalf("February melt index = %v, want 0", got)
	}
	if got := m.MeltIndex(date(2009, 7, 10, 12)); got < 0.8 {
		t.Fatalf("July melt index = %v, want near 1", got)
	}
}

func TestMeltIndexRampsThroughSpring(t *testing.T) {
	m := New(1)
	apr := m.MeltIndex(date(2009, 4, 20, 12))
	may := m.MeltIndex(date(2009, 5, 20, 12))
	jun := m.MeltIndex(date(2009, 6, 20, 12))
	if !(apr < may && may < jun) {
		t.Fatalf("melt index not monotone through spring: %v %v %v", apr, may, jun)
	}
}

func TestStormsOccurAndRaiseWind(t *testing.T) {
	m := New(42)
	storms := 0
	maxWind := 0.0
	ts := date(2008, 10, 1, 0)
	for i := 0; i < 365*4; i++ { // sample 4x daily for a year
		c := m.Sample(ts)
		if c.Storm {
			storms++
			if c.WindSpeed < 15 {
				t.Fatalf("storm wind %v m/s at %v, want >= 15", c.WindSpeed, ts)
			}
		}
		if c.WindSpeed > maxWind {
			maxWind = c.WindSpeed
		}
		ts = ts.Add(6 * time.Hour)
	}
	if storms == 0 {
		t.Fatal("no storms in a year of samples")
	}
}

func TestSolarElevationBounds(t *testing.T) {
	f := func(doy16 uint16, hodRaw uint16) bool {
		doy := int(doy16%365) + 1
		hod := float64(hodRaw%2400) / 100
		e := solarElevation(latitudeDeg, doy, hod)
		return e >= -math.Pi/2 && e <= math.Pi/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConditionsPhysical(t *testing.T) {
	m := New(11)
	f := func(hours uint32) bool {
		ts := date(2008, 9, 1, 0).Add(time.Duration(hours%(24*730)) * time.Hour)
		c := m.Sample(ts)
		return c.SolarIrradiance >= 0 && c.SolarIrradiance <= 1000 &&
			c.WindSpeed >= 0 && c.WindSpeed < 60 &&
			c.SnowDepthM >= 0 && c.SnowDepthM <= maxSnowDepthM+0.01 &&
			m.MeltIndex(ts) >= 0 && m.MeltIndex(ts) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWinterWindierThanSummerOnAverage(t *testing.T) {
	m := New(9)
	mean := func(month time.Month) float64 {
		var sum float64
		n := 0
		for d := 1; d <= 28; d++ {
			for h := 0; h < 24; h += 6 {
				sum += m.Sample(date(2009, month, d, h)).WindSpeed
				n++
			}
		}
		return sum / float64(n)
	}
	if w, s := mean(time.January), mean(time.July); w <= s {
		t.Fatalf("January mean wind %v <= July %v; seasonality inverted", w, s)
	}
}
