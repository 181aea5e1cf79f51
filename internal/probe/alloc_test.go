package probe

import (
	"testing"
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

// These tests pin the reading store's allocation discipline: every probe
// samples hourly and the base confirms the backlog daily, so once the store
// has grown to a day's working size neither sampling, nor confirmation, nor
// dropping from a full flash may touch the heap.
//
// The same set carries //glacvet:hotpath in probe.go (sample, compact,
// MarkComplete): `make lint` rejects the allocation patterns statically,
// these pins catch whatever slips past the lint at runtime. Keep the two
// sets in sync.

func allocProbe(t *testing.T) (*simenv.Simulator, *Probe) {
	t.Helper()
	sim := simenv.NewAt(3, time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))
	return sim, New(sim, weather.New(3), immortal(21))
}

func TestSampleAndConfirmAllocFree(t *testing.T) {
	sim, p := allocProbe(t)
	now := sim.Now()
	day := func() {
		for h := 0; h < 24; h++ {
			now = now.Add(time.Hour)
			p.sample(now)
		}
		p.MarkComplete(p.nextSeq)
	}
	day() // warm: the weather model's day cache
	avg := testing.AllocsPerRun(50, day)
	if avg != 0 {
		t.Fatalf("a day of sampling plus confirmation allocates %.1f objects/op, want 0", avg)
	}
	if p.PendingCount() != 0 || p.oldest != 1 {
		t.Fatalf("pending %d, oldest seq in flash %d after confirmed days; want 0 and none dropped",
			p.PendingCount(), p.oldest)
	}
}

func TestSampleFullBufferAllocFree(t *testing.T) {
	sim, p := allocProbe(t)
	now := sim.Now()
	// Fill the flash with unconfirmed readings, then keep sampling: every
	// new reading drops the oldest.
	for h := 0; h < bufferCap+20; h++ {
		now = now.Add(time.Hour)
		p.sample(now)
	}
	// The runs together take 4000 readings past a full flash, several
	// compactions of the store's backing array, so an amortized regrowth
	// (a drop that gives up a slot of capacity) shows in the per-op count.
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 200; i++ {
			now = now.Add(time.Hour)
			p.sample(now)
		}
	})
	if avg != 0 {
		t.Fatalf("sampling into a full store allocates %.1f objects/op, want 0", avg)
	}
	if p.PendingCount() != bufferCap || p.PendingView()[0].Seq != p.nextSeq-bufferCap+1 {
		t.Fatalf("full store holds %d readings from seq %d, want the newest %d",
			p.PendingCount(), p.PendingView()[0].Seq, bufferCap)
	}
}
