package evlog

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/simenv"
)

// These tests pin the recorder's allocation discipline, the contract
// that lets -record ride along on real campaigns:
//
//   - recording OFF: a simulator with no writer attached pays nothing —
//     the schedule+execute path stays at zero allocations, exactly the
//     simenv pin re-asserted from this side of the boundary;
//   - recording ON: once the name table is warm and the pending buffer
//     has grown to working size, recording an event is delta-encoding
//     into reused scratch plus a memcpy — zero allocations per event in
//     steady state (flushes amortize to a Write per few thousand events
//     and reuse the buffer's capacity).
//
// Writer.Observe and Writer.record carry //glacvet:hotpath in writer.go:
// `make lint` rejects the allocation patterns statically, these pins
// catch whatever slips past the lint at runtime. Keep the sets in sync.

func TestRecordingOffAllocFree(t *testing.T) {
	s := simenv.New(1)
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		s.After(time.Second, "warm", fn)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(200, func() {
		s.After(time.Second, "e", fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("with recording off, schedule+execute allocates %.1f objects/op, want 0", avg)
	}
}

func TestRecordingOnSteadyStateAllocFree(t *testing.T) {
	w, err := NewWriter(io.Discard, Header{Scenario: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	s := simenv.New(1)
	w.Attach(s)
	fn := func(time.Time) {}
	// Warm up: intern the event name, grow scratch and the pending
	// buffer to steady size, settle the queue and slot table.
	for i := 0; i < 64; i++ {
		s.After(time.Second, "e", fn)
	}
	for s.Step() {
	}
	// 200 steady-state records are ~4 bytes each — far below the flush
	// threshold, so the loop exercises the pure append path.
	avg := testing.AllocsPerRun(200, func() {
		s.After(time.Second, "e", fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state recording allocates %.1f objects/op, want 0", avg)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// syntheticLog writes a sealed log of n events cycling through the same
// five names, one every 1.5 s of simulated time.
func syntheticLog(t testing.TB, n int) []byte {
	t.Helper()
	names := []string{"tick", "mcu.sample", "gps.reading", "gumstix.job.upload", "probe.fetch"}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Scenario: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w.Observe(names[i%len(names)], simenv.Epoch.Add(time.Duration(i)*1500*time.Millisecond))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The reader's pin: decoding allocates per log and per distinct name,
// never per record. The record table is sized by one frame walk and
// allocated once, so a log ten times longer with the same names costs
// the same number of allocations. The collector is off while it counts:
// a collection cycle allocates for itself, and the longer log's bigger
// table would start more of them.
func TestDecodeAllocsDoNotGrowWithRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		data := syntheticLog(t, n)
		runtime.GC() // finish any cycle the log's writing started
		return testing.AllocsPerRun(20, func() {
			if _, err := decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(5_000), allocs(50_000)
	if small != large {
		t.Fatalf("decoding 5,000 records allocates %.0f objects, 50,000 allocate %.0f: allocations grow with the log", small, large)
	}
}

// BenchmarkRead decodes one recorded built-in scenario at its default
// horizon: the read step of every replay.
func BenchmarkRead(b *testing.B) {
	d, err := scenario.Build("dual-base", scenario.Params{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Scenario: "dual-base", Seed: 42, Days: 90})
	if err != nil {
		b.Fatal(err)
	}
	w.Attach(d.Sim)
	if err := d.RunDays(90); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
