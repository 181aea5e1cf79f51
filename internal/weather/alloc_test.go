package weather

import (
	"testing"
	"time"
)

// These tests pin the climate model's steady-state allocation discipline:
// once the day cache holds the days being sampled, Sample must not touch
// the heap at all. Every bus tick of every station of every sweep cell
// calls Sample, so a stray allocation here multiplies into campaign-scale
// garbage.
//
// Sample and dayStateFor carry //glacvet:hotpath in weather.go: `make
// lint` rejects the allocation patterns statically, these pins catch
// whatever slips past the lint at runtime. Keep the two sets in sync.

func TestSampleAllocFree(t *testing.T) {
	m := New(1)
	base := time.Date(2008, 11, 5, 0, 0, 0, 0, time.UTC)
	// Warm the day cache for the days the loop will touch.
	m.Sample(base)
	m.Sample(base.Add(24 * time.Hour))
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		// Stride across two cached days at non-repeating instants, so the
		// pin exercises real derivation (not the same-instant memo).
		m.Sample(base.Add(time.Duration(i) * 17 * time.Minute))
		i = (i + 1) % 169 // 169*17min < 48h: stays inside the warmed days
	})
	if avg != 0 {
		t.Fatalf("steady-state Sample allocates %.1f objects/op, want 0", avg)
	}
}

func TestSampleDayMissAllocFree(t *testing.T) {
	m := New(2)
	base := time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC)
	day := 0
	avg := testing.AllocsPerRun(300, func() {
		// Every call lands on a fresh day, forcing deriveDay each time:
		// the slow path (HashNoise, per-day trig) must also stay off the
		// heap, or storm-window sweeps pay per simulated day.
		m.Sample(base.AddDate(0, 0, day))
		day++
	})
	if avg != 0 {
		t.Fatalf("day-miss Sample allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkWeatherSample measures the per-tick cost of the climate model:
// the day-cache-hit path a bus tick takes. This is the kernel the
// day-memoization optimises — compare with the reference implementation in
// equivalence_test.go for the unmemoized cost.
func BenchmarkWeatherSample(b *testing.B) {
	m := New(1)
	base := time.Date(2008, 11, 5, 0, 0, 0, 0, time.UTC)
	// 288 instants = one day of 5-minute bus ticks, the deployment cadence.
	instants := make([]time.Time, 288)
	for i := range instants {
		instants[i] = base.Add(time.Duration(i) * 5 * time.Minute)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Sample(instants[i%len(instants)])
	}
}

// BenchmarkWeatherSampleReference is the unmemoized baseline for
// BenchmarkWeatherSample: the original per-call derivation kept in
// equivalence_test.go. The ratio between the two is the day cache's win.
func BenchmarkWeatherSampleReference(b *testing.B) {
	m := newReference(1)
	base := time.Date(2008, 11, 5, 0, 0, 0, 0, time.UTC)
	instants := make([]time.Time, 288)
	for i := range instants {
		instants[i] = base.Add(time.Duration(i) * 5 * time.Minute)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Sample(instants[i%len(instants)])
	}
}
