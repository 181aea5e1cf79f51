package simenv

import (
	"testing"
	"time"
)

// BenchmarkQueue times one Step of a steady fleet of 1000 tickers, which
// executes one event and schedules its successor: the kernel's per-event
// cost with no model code behind it. In "burst" every ticker shares each
// instant, as duty-cycled stations do, so the queue holds one run of 1000;
// in "spread" each ticker has an instant of its own, so every event is its
// own heap key.
func BenchmarkQueue(b *testing.B) {
	const tickers = 1000
	for _, bc := range []struct {
		name  string
		phase time.Duration // start offset between consecutive tickers
	}{
		{"burst", 0},
		{"spread", time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			fn := func(time.Time) {}
			for i := 0; i < tickers; i++ {
				s.Every(s.Now().Add(time.Duration(i)*bc.phase), time.Minute, "tick", fn)
			}
			for i := 0; i < tickers; i++ {
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
