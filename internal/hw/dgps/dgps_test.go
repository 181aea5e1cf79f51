package dgps

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw/mcu"
	"repro/internal/simenv"
	"repro/internal/weather"
)

func newRig(t *testing.T, wx *weather.Model) (*simenv.Simulator, *mcu.MCU, *Unit) {
	t.Helper()
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	var sampler energy.Sampler
	if wx != nil {
		sampler = wx
	}
	bus := energy.NewBus(sim, bat, nil, sampler)
	ctrl := mcu.New(sim, bus, "mcu")
	u := New(sim, ctrl, wx, "ref-gps")
	return sim, ctrl, u
}

func TestAutoRecordOnPowerUp(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(ReadingDuration + time.Minute); err != nil {
		t.Fatal(err)
	}
	if u.FileCount() < 1 {
		t.Fatal("no reading recorded after one reading duration")
	}
}

func TestContinuousReadingsWhilePowered(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := u.FileCount(); n != 12 { // 60 / 5 min
		t.Fatalf("%d files after 1h continuous, want 12", n)
	}
}

func TestPowerOffStopsRecording(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(ReadingDuration + time.Second); err != nil {
		t.Fatal(err)
	}
	ctrl.SetRail(Rail, false)
	n := u.FileCount()
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if u.FileCount() != n {
		t.Fatalf("files appeared while unpowered: %d -> %d", n, u.FileCount())
	}
}

func TestPartialReadingDiscardedOnPowerCut(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(2 * time.Minute); err != nil { // mid-reading
		t.Fatal(err)
	}
	ctrl.SetRail(Rail, false)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if u.FileCount() != 0 {
		t.Fatalf("partial reading produced a file")
	}
}

func TestFileSizesNearPaperValue(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	files := u.Files()
	if len(files) < 50 {
		t.Fatalf("only %d files", len(files))
	}
	// 6..13 satellites in view bound the size.
	sized := func(sats int) int { return int(float64(BaseReadingBytes) * (0.70 + 0.04*float64(sats))) }
	lo, hi := sized(6), sized(13)
	var sum float64
	varies := false
	for _, f := range files {
		sum += float64(f.SizeBytes)
		if f.SizeBytes != files[0].SizeBytes {
			varies = true
		}
		if f.SizeBytes < lo || f.SizeBytes > hi {
			t.Fatalf("file size %d outside the 6..13-satellite range [%d, %d]", f.SizeBytes, lo, hi)
		}
	}
	mean := sum / float64(len(files))
	if mean < 140*1024 || mean > 190*1024 {
		t.Fatalf("mean reading size %.0f B, paper says ~165 KB", mean)
	}
	if !varies {
		t.Fatal("file size does not vary with satellites")
	}
}

func TestDeleteRemovesFile(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	files := u.Files()
	if err := u.Delete(files[0].ID); err != nil {
		t.Fatal(err)
	}
	if u.FileCount() != len(files)-1 {
		t.Fatal("delete did not shrink CF card")
	}
	if err := u.Delete(files[0].ID); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestTransferTimeMatchesWindowArithmetic(t *testing.T) {
	// §VI: ~21 days of state-3 readings (12/day) ≈ a full 2 h window.
	f := File{SizeBytes: BaseReadingBytes}
	perFile := f.TransferTime(1)
	total := time.Duration(21*12) * perFile
	if total < 90*time.Minute || total > 150*time.Minute {
		t.Fatalf("21 days of state-3 backlog drains in %v, want ≈2 h", total)
	}
	// And ~259 days of state-2 readings (1/day) is the same order.
	total2 := time.Duration(259) * perFile
	if total2 < 90*time.Minute || total2 > 150*time.Minute {
		t.Fatalf("259 days of state-2 backlog drains in %v, want ≈2 h", total2)
	}
}

func TestDegradedRS232SlowsTransfer(t *testing.T) {
	f := File{SizeBytes: BaseReadingBytes}
	if f.TransferTime(0.1) <= f.TransferTime(1) {
		t.Fatal("degraded link not slower")
	}
	if f.TransferTime(0) <= 0 {
		t.Fatal("zero rate should give a huge duration, not panic or zero")
	}
}

func TestTimeFixReturnsTrueTime(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	got, err := u.TimeFix(sim.Now())
	if err != nil {
		t.Fatalf("TimeFix: %v", err)
	}
	if !got.Equal(sim.Now()) {
		t.Fatalf("fix time %v != wall %v", got, sim.Now())
	}
}

func TestTimeFixFailsUnpowered(t *testing.T) {
	sim, _, u := newRig(t, nil)
	if _, err := u.TimeFix(sim.Now()); err == nil {
		t.Fatal("fix succeeded while unpowered")
	}
}

func TestTimeFixFailsUnderDeepSnowOrStorm(t *testing.T) {
	wx := weather.New(77)
	sim := simenv.NewAt(77, time.Date(2009, 3, 25, 0, 0, 0, 0, time.UTC))
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, wx)
	ctrl := mcu.New(sim, bus, "mcu")
	u := New(sim, ctrl, wx, "gps")
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c := wx.Sample(sim.Now())
	_, err := u.TimeFix(sim.Now())
	if c.SnowDepthM > 2.3 && err == nil {
		t.Fatal("fix succeeded with antenna buried")
	}
	// Whether or not this date is buried under this seed, failures must be
	// deterministic: same rig, same result.
	sim2 := simenv.NewAt(77, time.Date(2009, 3, 25, 0, 0, 0, 0, time.UTC))
	bat2 := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus2 := energy.NewBus(sim2, bat2, nil, wx)
	ctrl2 := mcu.New(sim2, bus2, "mcu")
	u2 := New(sim2, ctrl2, wx, "gps")
	ctrl2.SetRail(Rail, true)
	if err := sim2.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	_, err2 := u2.TimeFix(sim2.Now())
	if (err == nil) != (err2 == nil) {
		t.Fatalf("fix determinism broken: %v vs %v", err, err2)
	}
}

func TestInjectBacklog(t *testing.T) {
	_, _, u := newRig(t, nil)
	u.InjectBacklog(252) // 21 days × 12
	if u.FileCount() != 252 {
		t.Fatalf("backlog %d, want 252", u.FileCount())
	}
	var backlog int64
	for _, f := range u.Files() {
		backlog += int64(f.SizeBytes)
	}
	if backlog < 30*1024*1024 {
		t.Fatalf("backlog bytes %d implausibly small", backlog)
	}
}

func TestPoweredUnitRecordsEveryFiveMinutes(t *testing.T) {
	sim, ctrl, u := newRig(t, nil)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(16 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if n := u.FileCount(); n != 3 {
		t.Fatalf("unit recorded %d files in 16m, want 3", n)
	}
}

// TestCardMatchesListModel drives the CF card with recorded files and
// deletes at its head, middle and tail, against a plain slice that deletes
// by copying. The card keeps a head offset so a head delete costs the same
// at any backlog; what it reports must not depend on that.
func TestCardMatchesListModel(t *testing.T) {
	_, _, u := newRig(t, nil)
	rng := rand.New(rand.NewSource(5))
	var model []File
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(model) == 0:
			k := 1 + rng.Intn(3)
			u.InjectBacklog(k)
			files := u.Files() // the k new recordings are the card's tail
			model = append(model, files[len(files)-k:]...)
		default:
			i := 0 // the drain's case: the oldest file
			if op == 3 {
				i = rng.Intn(len(model))
			}
			if err := u.Delete(model[i].ID); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			model = append(model[:i:i], model[i+1:]...)
		}
		got := u.Files()
		if len(got) != len(model) || u.FileCount() != len(model) {
			t.Fatalf("step %d: card holds %d files (count %d), model %d", step, len(got), u.FileCount(), len(model))
		}
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("step %d: file %d is %+v, model %+v", step, i, got[i], model[i])
			}
		}
		oldest, ok := u.Oldest()
		if ok != (len(model) > 0) || ok && oldest != model[0] {
			t.Fatalf("step %d: Oldest() = %+v, %v; model head %v", step, oldest, ok, model)
		}
	}
}

// TestDrainOldestAllocFree pins the drain's steady state: recording a file
// and draining the oldest one reuse the card's backing array.
func TestDrainOldestAllocFree(t *testing.T) {
	_, _, u := newRig(t, nil)
	u.InjectBacklog(64)
	avg := testing.AllocsPerRun(500, func() {
		u.InjectBacklog(1)
		f, _ := u.Oldest()
		if err := u.Delete(f.ID); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("recording plus draining the oldest file allocates %.1f objects/op, want 0", avg)
	}
}
