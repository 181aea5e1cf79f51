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
	wx := weather.New(weather.DefaultConfig(2))
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
	wx := weather.New(weather.DefaultConfig(2))
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
	wx := weather.New(weather.DefaultConfig(2))
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
// across MarkComplete: confirmed readings leave memory, but BufferCap still
// counts them until the drop-oldest rule would have evicted them from a
// store that kept every reading. The expected rows are literals measured on
// that keep-everything store, so a compaction that shifts a drop fails here.
func TestStoreEquivalence(t *testing.T) {
	cfg := immortal(21)
	cfg.BufferCap = 10
	sim := simenv.New(1)
	p := New(sim, nil, cfg)
	steps := []struct {
		hours                 int    // sample for this many hours, then
		mark                  uint64 // MarkComplete(mark) when non-zero
		pending, dropped      int
		lastSeq, firstPending uint64 // firstPending 0: nothing pending
	}{
		{4, 0, 4, 0, 4, 1},
		{0, 3, 1, 0, 4, 4},
		{6, 0, 7, 0, 10, 4},   // full: 3 confirmed + 7 pending
		{2, 0, 9, 2, 12, 4},   // drops confirmed 1, 2
		{3, 0, 10, 5, 15, 6},  // drops confirmed 3, then pending 4, 5
		{0, 15, 0, 5, 15, 0},  // everything confirmed, flash still full
		{5, 0, 5, 10, 20, 16}, // each new reading evicts a confirmed one
		{0, 17, 3, 10, 20, 18},
		{12, 0, 10, 22, 32, 23},
		{0, 40, 0, 22, 32, 0}, // completion past LastSeq
		{3, 0, 0, 25, 35, 0},  // new readings already count as confirmed
		{10, 0, 5, 35, 45, 41},
		{0, 2, 5, 35, 45, 41}, // completion never regresses
		{0, 44, 1, 35, 45, 45},
		{25, 0, 10, 60, 70, 61},
		{0, 60, 10, 60, 70, 61}, // below the oldest pending: nothing leaves
		{1, 0, 10, 61, 71, 62},
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
		if p.PendingCount() != st.pending || p.dropped != st.dropped ||
			p.nextSeq != st.lastSeq || first != st.firstPending {
			t.Fatalf("step %d (+%dh, mark %d): pending %d dropped %d last %d first %d, want %d %d %d %d",
				i, st.hours, st.mark, p.PendingCount(), p.dropped, p.nextSeq, first,
				st.pending, st.dropped, st.lastSeq, st.firstPending)
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
		t.Skip("probe survived an unlikely draw")
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
	cfg := immortal(21)
	cfg.BufferCap = 10
	sim := simenv.New(1)
	p := New(sim, nil, cfg)
	if err := sim.RunFor(30 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if p.PendingCount() != 10 {
		t.Fatalf("buffer holds %d, cap 10", p.PendingCount())
	}
	if p.dropped != 20 {
		t.Fatalf("dropped %d, want 20", p.dropped)
	}
	if p.PendingView()[0].Seq != 21 {
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
