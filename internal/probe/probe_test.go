package probe

import (
	"math"
	"testing"
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

const year = 365 * 24 * time.Hour

func immortal(id int) Config {
	cfg := DefaultConfig(id)
	cfg.MeanLifetime = 200 * year
	return cfg
}

func TestSamplingAccumulatesHourly(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := p.PendingCount(); n != 48 {
		t.Fatalf("%d readings after 48h, want 48", n)
	}
}

func TestReadingsSequential(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for i, r := range p.PendingView() {
		if r.Seq != uint64(i+1) {
			t.Fatalf("reading %d has seq %d", i, r.Seq)
		}
	}
}

func TestConductivityWinterLowSummerHigh(t *testing.T) {
	wx := weather.New(2)
	sim := simenv.NewAt(2, time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC))
	p := New(sim, wx, immortal(21))
	feb := p.ConductivityAt(time.Date(2009, 2, 10, 12, 0, 0, 0, time.UTC))
	jul := p.ConductivityAt(time.Date(2009, 7, 20, 12, 0, 0, 0, time.UTC))
	if feb > 4 {
		t.Fatalf("February conductivity %v µS, want low winter floor", feb)
	}
	if jul < feb+3 {
		t.Fatalf("July conductivity %v not well above February %v (Fig 6 shape)", jul, feb)
	}
}

func TestConductivityRampsAtEndOfWinter(t *testing.T) {
	// Fig 6 shows the Jan-Apr window: flat, then rising in spring.
	wx := weather.New(2)
	sim := simenv.NewAt(2, time.Date(2009, 1, 27, 0, 0, 0, 0, time.UTC))
	p := New(sim, wx, immortal(24))
	mean := func(m time.Month, d int) float64 {
		var sum float64
		for h := 0; h < 24; h++ {
			sum += p.ConductivityAt(time.Date(2009, m, d, h, 0, 0, 0, time.UTC))
		}
		return sum / 24
	}
	feb := mean(time.February, 10)
	apr := mean(time.April, 21)
	if apr <= feb+0.5 {
		t.Fatalf("conductivity not rising by late April: Feb %v, Apr %v", feb, apr)
	}
}

func TestProbesDiffer(t *testing.T) {
	wx := weather.New(2)
	sim := simenv.NewAt(2, time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC))
	a := New(sim, wx, immortal(21))
	b := New(sim, wx, immortal(25))
	ts := time.Date(2009, 5, 15, 12, 0, 0, 0, time.UTC)
	if math.Abs(a.ConductivityAt(ts)-b.ConductivityAt(ts)) < 0.05 {
		t.Fatal("two probes give near-identical conductivity; per-probe variation missing")
	}
}

func TestMarkCompleteAdvancesPending(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	p.MarkComplete(6)
	if n := p.PendingCount(); n != 4 {
		t.Fatalf("pending %d after completing through 6 of 10, want 4", n)
	}
	if p.PendingView()[0].Seq != 7 {
		t.Fatalf("first pending seq %d, want 7", p.PendingView()[0].Seq)
	}
	// MarkComplete never regresses.
	p.MarkComplete(2)
	if p.completed != 6 {
		t.Fatalf("completion regressed to %d", p.completed)
	}
}

func TestPendingViewBySeq(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	p.MarkComplete(2)
	view := p.PendingView()
	if len(view) != 3 || view[0].Seq != 3 || view[2].Seq != 5 {
		t.Fatalf("pending view after completing through 2 of 5: %+v", view)
	}
}

// TestStoreEquivalence pins the flash-occupancy rule of the reading store
// across MarkComplete: confirmed readings leave memory, but bufferCap still
// counts them until the drop-oldest rule would have evicted them from a
// store that kept every reading. That store holds the newest bufferCap
// readings, and the pending ones are those of them past the highest
// confirmation, so the expected rows are its arithmetic in C = bufferCap
// (a shift of one drop fails here).
func TestStoreEquivalence(t *testing.T) {
	const C = bufferCap
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	steps := []struct {
		hours                 int    // sample for this many hours, then
		mark                  uint64 // MarkComplete(mark) when non-zero
		pending               int
		lastSeq, firstPending uint64 // firstPending 0: nothing pending
	}{
		{4, 0, 4, 4, 1},
		{0, 3, 1, 4, 4},
		{C - 4, 0, C - 3, C, 4},  // full: 3 confirmed + C-3 pending
		{2, 0, C - 1, C + 2, 4},  // drops confirmed 1, 2
		{3, 0, C, C + 5, 6},      // drops confirmed 3, then pending 4, 5
		{0, C + 5, 0, C + 5, 0},  // everything confirmed, flash still full
		{5, 0, 5, C + 10, C + 6}, // each new reading evicts a confirmed one
		{0, C + 7, 3, C + 10, C + 8},
		{C + 2, 0, C, 2*C + 12, C + 13},
		{0, 2*C + 20, 0, 2*C + 12, 0}, // completion past LastSeq
		{3, 0, 0, 2*C + 15, 0},        // new readings already count as confirmed
		{10, 0, 5, 2*C + 25, 2*C + 21},
		{0, 2, 5, 2*C + 25, 2*C + 21}, // completion never regresses
		{0, 2*C + 24, 1, 2*C + 25, 2*C + 25},
		{C + 15, 0, C, 3*C + 40, 2*C + 41},
		{0, 2*C + 40, C, 3*C + 40, 2*C + 41}, // below the oldest pending: nothing leaves
		{1, 0, C, 3*C + 41, 2*C + 42},
	}
	for i, st := range steps {
		if st.hours > 0 {
			if err := sim.RunFor(time.Duration(st.hours) * time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		if st.mark > 0 {
			p.MarkComplete(st.mark)
		}
		first := uint64(0)
		if v := p.PendingView(); len(v) > 0 {
			first = v[0].Seq
		}
		if p.PendingCount() != st.pending || p.nextSeq != st.lastSeq || first != st.firstPending {
			t.Fatalf("step %d (+%dh, mark %d): pending %d last %d first %d, want %d %d %d",
				i, st.hours, st.mark, p.PendingCount(), p.nextSeq, first,
				st.pending, st.lastSeq, st.firstPending)
		}
	}
}

func TestProbeStopsSamplingAfterFailure(t *testing.T) {
	cfg := DefaultConfig(21)
	cfg.MeanLifetime = 24 * time.Hour // fail fast
	sim := simenv.New(1)
	p := New(sim, nil, cfg)
	if err := sim.RunFor(60 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if p.Alive(sim.Now()) {
		t.Fatal("probe with a one-day mean lifetime still alive after 60 days; the test needs it failed")
	}
	n := p.PendingCount()
	if err := sim.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if p.PendingCount() != n {
		t.Fatal("dead probe kept sampling")
	}
}

func TestBufferOverflowDropsOldest(t *testing.T) {
	sim := simenv.New(1)
	p := New(sim, nil, immortal(21))
	if err := sim.RunFor((bufferCap + 20) * time.Hour); err != nil {
		t.Fatal(err)
	}
	if p.PendingCount() != bufferCap {
		t.Fatalf("buffer holds %d, cap %d", p.PendingCount(), bufferCap)
	}
	if p.PendingView()[0].Seq != 21 { // the first 20 readings were dropped
		t.Fatalf("oldest surviving seq %d, want 21", p.PendingView()[0].Seq)
	}
}

// §V: 4/7 probes alive after one year; ~2 still producing at 18 months.
func TestSurvivalMatchesPaperCohort(t *testing.T) {
	mean := time.Duration(1.8 * float64(year))
	// Average over many seeds: expectation should match the exponential.
	var oneYear, eighteenMo float64
	const seeds = 200
	for s := int64(0); s < seeds; s++ {
		oneYear += Survival(s, 7, mean, year)
		eighteenMo += Survival(s, 7, mean, year+year/2)
	}
	oneYear /= seeds
	eighteenMo /= seeds
	if oneYear < 0.50 || oneYear > 0.65 {
		t.Fatalf("mean 1-year survival %.2f, paper cohort 4/7≈0.57", oneYear)
	}
	if eighteenMo < 0.35 || eighteenMo > 0.52 {
		t.Fatalf("mean 18-month survival %.2f, want ~0.43 (2-3 of 7)", eighteenMo)
	}
	if eighteenMo >= oneYear {
		t.Fatal("survival not decreasing")
	}
}
