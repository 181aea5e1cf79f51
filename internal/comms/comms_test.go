package comms

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/energy"
	"repro/internal/hw/mcu"
	"repro/internal/simenv"
	"repro/internal/weather"
)

func newGPRSRig(t *testing.T, wx *weather.Model) (*simenv.Simulator, *mcu.MCU, *GPRS) {
	t.Helper()
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	var sampler energy.Sampler
	if wx != nil {
		sampler = wx
	}
	bus := energy.NewBus(sim, bat, nil, sampler)
	ctrl := mcu.New(sim, bus, "mcu")
	g := NewGPRS(sim, ctrl, wx, "base-gprs")
	return sim, ctrl, g
}

func TestGPRSTransferTimeMatchesTableI(t *testing.T) {
	_, _, g := newGPRSRig(t, nil)
	// 1 MB at 5000 bps with 12% overhead ≈ 1878 s.
	d := g.TransferTime(1024 * 1024)
	wantSecs := 1024 * 1024 * 8 * 1.12 / 5000
	if math.Abs(d.Seconds()-wantSecs) > 1 {
		t.Fatalf("1MB over GPRS takes %v, want ~%.0fs", d, wantSecs)
	}
}

func TestGPRSRequiresPower(t *testing.T) {
	sim, _, g := newGPRSRig(t, nil)
	if err := g.Attach(sim.Now()); err == nil {
		t.Fatal("attach succeeded unpowered")
	}
	var nre *NotReadyError
	if err := g.Attach(sim.Now()); !errors.As(err, &nre) {
		t.Fatalf("want NotReadyError, got %v", err)
	}
}

func TestGPRSAttachAndTransfer(t *testing.T) {
	sim, ctrl, g := newGPRSRig(t, nil)
	ctrl.SetRail(GPRSRail, true)
	if err := sim.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Find a good day (outage days exist even with nil weather).
	for !g.SignalAvailable(sim.Now()) {
		if err := sim.RunFor(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Attach(sim.Now()); err != nil {
		t.Fatalf("attach: %v", err)
	}
	res := g.TryTransfer(sim.Now(), 10*1024)
	if res.err != nil {
		t.Fatalf("small transfer failed: %v", res.err)
	}
	if want := g.TransferTime(10 * 1024); res.Elapsed != want {
		t.Fatalf("transfer took %v, want the whole 10KiB's %v", res.Elapsed, want)
	}
}

func TestGPRSPowerLossDetaches(t *testing.T) {
	sim, ctrl, g := newGPRSRig(t, nil)
	ctrl.SetRail(GPRSRail, true)
	for !g.SignalAvailable(sim.Now()) {
		if err := sim.RunFor(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Attach(sim.Now()); err != nil {
		t.Fatal(err)
	}
	ctrl.SetRail(GPRSRail, false)
	if g.Attached() {
		t.Fatal("still attached after rail down")
	}
}

func TestGPRSOutagesMoreCommonInSummer(t *testing.T) {
	wx := weather.New(3)
	sim, _, g := newGPRSRig(t, wx)
	countOutages := func(start time.Time) int {
		n := 0
		for d := 0; d < 90; d++ {
			if !g.SignalAvailable(start.AddDate(0, 0, d)) {
				n++
			}
		}
		return n
	}
	_ = sim
	winter := countOutages(time.Date(2009, 1, 1, 12, 0, 0, 0, time.UTC))
	summer := countOutages(time.Date(2009, 6, 1, 12, 0, 0, 0, time.UTC))
	if summer <= winter {
		t.Fatalf("summer outages %d <= winter %d; wet-season effect missing", summer, winter)
	}
}

func TestGPRSLongTransfersDropSometimes(t *testing.T) {
	sim, ctrl, g := newGPRSRig(t, nil)
	ctrl.SetRail(GPRSRail, true)
	drops, tries := 0, 0
	for day := 0; day < 120; day++ {
		if g.SignalAvailable(sim.Now()) {
			if err := g.Attach(sim.Now()); err == nil {
				tries++
				res := g.TryTransfer(sim.Now(), 2*1024*1024) // ~1h on air
				if errors.Is(res.err, ErrDropped) {
					drops++
					if res.Elapsed >= g.TransferTime(2*1024*1024) {
						t.Fatal("drop reported but full payload sent")
					}
					if res.Elapsed <= 0 {
						t.Fatal("drop with zero elapsed time")
					}
				}
				g.Detach()
			}
		}
		if err := sim.RunFor(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if drops == 0 {
		t.Fatalf("no drops in %d one-hour transfers; drop model inert", tries)
	}
	if drops == tries {
		t.Fatal("every transfer dropped; drop model too hot")
	}
}

func TestRadioModemInterferenceDiurnal(t *testing.T) {
	sim := simenv.New(1)
	m := NewRadioModem(sim, "cafe")
	night := m.InterferenceLevel(time.Date(2009, 3, 1, 3, 0, 0, 0, time.UTC))
	day := m.InterferenceLevel(time.Date(2009, 3, 1, 15, 0, 0, 0, time.UTC))
	if day <= night {
		t.Fatalf("daytime interference %v <= night %v", day, night)
	}
}

func TestRadioSlowerAndHungrierThanGPRS(t *testing.T) {
	// The architectural argument of §II: GPRS moves data faster per watt.
	sim := simenv.New(1)
	m := NewRadioModem(sim, "m")
	_, _, g := newGPRSRig(t, nil)
	n := int64(1024 * 1024)
	radioT, gprsT := m.TransferTime(n), g.TransferTime(n)
	if radioT <= gprsT {
		t.Fatalf("radio %v not slower than GPRS %v", radioT, gprsT)
	}
	radioE := RadioPowerW * radioT.Hours()
	gprsE := GPRSPowerW * gprsT.Hours()
	if radioE <= 2*gprsE {
		t.Fatalf("radio energy %vWh not ≫ GPRS %vWh for same payload", radioE, gprsE)
	}
}

func TestProbeChannelSeasonalLoss(t *testing.T) {
	wx := weather.New(4)
	sim := simenv.New(4)
	c := NewProbeChannel(sim, wx)
	winter := c.LossRate(time.Date(2009, 1, 15, 12, 0, 0, 0, time.UTC))
	summer := c.LossRate(time.Date(2009, 7, 10, 12, 0, 0, 0, time.UTC))
	if winter > 0.04 {
		t.Fatalf("winter loss %v, want ~2.5%%", winter)
	}
	if summer < 0.11 || summer > 0.16 {
		t.Fatalf("summer loss %v, want ~13%% (the paper's 400/3000)", summer)
	}
}

func TestProbeChannelEmpiricalLossMatchesRate(t *testing.T) {
	wx := weather.New(5)
	sim := simenv.New(5)
	c := NewProbeChannel(sim, wx)
	ts := time.Date(2009, 7, 10, 12, 0, 0, 0, time.UTC) // summer
	lost := 0
	const n = 3000
	for i := 0; i < n; i++ {
		if !c.Send(ts) {
			lost++
		}
	}
	// Paper: ~400 missed in 3000 over the summer link.
	if lost < 280 || lost > 540 {
		t.Fatalf("lost %d/3000 in summer, paper says ~400", lost)
	}
}

func TestProbeChannelDeterministic(t *testing.T) {
	run := func() []bool {
		wx := weather.New(9)
		sim := simenv.New(9)
		c := NewProbeChannel(sim, wx)
		ts := time.Date(2009, 7, 1, 12, 0, 0, 0, time.UTC)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, c.Send(ts))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss pattern diverged at packet %d", i)
		}
	}
}

func TestTransferResultCompleted(t *testing.T) {
	if (TransferResult{err: ErrDropped}).Completed() {
		t.Fatal("dropped transfer reports completed")
	}
	if !(TransferResult{Elapsed: time.Second}).Completed() {
		t.Fatal("clean transfer reports incomplete")
	}
}

// Property: transfer time is monotone in payload size and zero for zero.
func TestPropertyTransferTimeMonotone(t *testing.T) {
	_, _, g := newGPRSRig(t, nil)
	f := func(a, b uint32) bool {
		x, y := int64(a%10_000_000), int64(b%10_000_000)
		if x > y {
			x, y = y, x
		}
		return g.TransferTime(x) <= g.TransferTime(y) && g.TransferTime(0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: packet airtime scales linearly with size.
func TestPropertyPacketAirtimeLinear(t *testing.T) {
	sim := simenv.New(1)
	c := NewProbeChannel(sim, nil)
	one := c.PacketAirtime(100)
	f := func(k uint8) bool {
		n := int(k%50) + 1
		got := c.PacketAirtime(100 * n)
		want := time.Duration(n) * one
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
