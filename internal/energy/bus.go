package energy

import (
	"sort"
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

// Sampler yields weather conditions; satisfied by *weather.Model.
type Sampler interface {
	Sample(ts time.Time) weather.Conditions
}

// Bus constants, shared by every station's bus.
const (
	// busTick is the integration step; charger output is re-sampled each
	// tick.
	busTick = 5 * time.Minute
	// brownoutVolts is the rest voltage below which the bus declares total
	// power failure (the MSP430 loses its RAM schedule and RTC).
	brownoutVolts = 10.9
	// recoverVolts is the rest voltage at which a failed bus comes back.
	recoverVolts = 11.9
)

// Bus ties a battery, a set of chargers and a set of named switched loads
// together on the simulator. Loads are expressed in watts and integrated
// lazily: energy book-keeping happens whenever a load changes or on the
// periodic tick, whichever comes first.
type Bus struct {
	sim     *simenv.Simulator
	battery *Battery
	weather Sampler

	loads      []loadEntry // every load ever set, sorted by name; deterministic iteration
	lastUpdate time.Time
	failed     bool
	failCount  int

	onFail    []func(now time.Time)
	onRestore []func(now time.Time)
	chargers  []Charger
	mains     []*MainsCharger // resolved once at NewBus; see chargeAt

	// Same-instant charge memo: advance, VoltageNow and ChargeW all need
	// the charger output at the current tick, and the weather sample plus
	// charger fold behind it is the bus's dominant cost. Chargers are pure
	// functions of (conditions, day), so the wattage for one timestamp is
	// computed once and reused. Keyed on UnixNano: bus instants are the
	// simulator clock, far inside the nano-representable era.
	lastChargeNano  int64
	lastChargeW     float64
	lastChargeValid bool
}

// NewBus constructs and starts a bus. The bus joins sim's shared
// integration tick: every bus built at the same instant advances from one
// queue entry, in construction order, each as its own "energy.tick" event.
func NewBus(sim *simenv.Simulator, battery *Battery, chargers []Charger, sampler Sampler) *Bus {
	b := &Bus{
		sim:        sim,
		battery:    battery,
		weather:    sampler,
		lastUpdate: sim.Now(),
		chargers:   append([]Charger(nil), chargers...),
	}
	// Resolve the seasonal mains chargers once: chargeAt used to rediscover
	// them with a type-assert scan on every tick of every station.
	for _, c := range b.chargers {
		if mc, ok := c.(*MainsCharger); ok {
			b.mains = append(b.mains, mc)
		}
	}
	sim.Join(sim.Now().Add(busTick), busTick, "energy.tick", func(now time.Time) {
		b.advance(now)
	})
	return b
}

// FailCount reports how many total power failures have occurred.
func (b *Bus) FailCount() int { return b.failCount }

// OnPowerFail registers a callback fired once per total depletion.
func (b *Bus) OnPowerFail(fn func(now time.Time)) { b.onFail = append(b.onFail, fn) }

// OnPowerRestore registers a callback fired once when a failed bus recovers.
func (b *Bus) OnPowerRestore(fn func(now time.Time)) { b.onRestore = append(b.onRestore, fn) }

// loadEntry is one named draw on the bus. Loads live in a name-sorted
// slice rather than a map so the total-draw fold runs in one fixed order:
// float addition rounds differently under reordering, and map iteration
// order would leak that into voltage traces and goldens. A load switched
// off keeps its entry at zero watts, an exact zero in the fold.
type loadEntry struct {
	name  string
	watts float64 // 0 while off
}

// loadIndex returns the position of name in the sorted load list and
// whether it is present.
func (b *Bus) loadIndex(name string) (int, bool) {
	i := sort.Search(len(b.loads), func(i int) bool { return b.loads[i].name >= name })
	return i, i < len(b.loads) && b.loads[i].name == name
}

// SetLoad sets the instantaneous draw of a named load in watts. A zero
// wattage switches the load off. Setting a load while the bus is failed is
// ignored — there is no power to supply it.
func (b *Bus) SetLoad(name string, watts float64) {
	b.advance(b.sim.Now())
	if b.failed {
		return
	}
	if watts <= 0 {
		watts = 0
	}
	i, ok := b.loadIndex(name)
	switch {
	case ok:
		b.loads[i].watts = watts
	case watts != 0:
		b.loads = append(b.loads, loadEntry{})
		copy(b.loads[i+1:], b.loads[i:])
		b.loads[i] = loadEntry{name: name, watts: watts}
	}
}

// TotalLoadW returns the current total draw in watts. Loads that are off
// add an exact zero, so the sum is the one over live loads alone.
func (b *Bus) TotalLoadW() float64 {
	var sum float64
	for _, l := range b.loads {
		sum += l.watts
	}
	return sum
}

// VoltageNow returns the terminal voltage under the present load and charge;
// this is what the MSP430's ADC samples every 30 minutes. The charge wattage
// comes straight out of advance — the old shape re-sampled weather and
// re-folded the chargers at an instant advance had just integrated.
func (b *Bus) VoltageNow() float64 {
	chargeW := b.advance(b.sim.Now())
	return b.battery.TerminalVoltage(b.TotalLoadW(), chargeW)
}

// chargeAt computes the charger output at ts, memoized per distinct
// timestamp (conditions and the mains season are pure in ts, so repeated
// queries at one instant — the tick's integrate-then-read sequence, or a
// thousand stations ticking at the same simulated moment — fold to one
// weather sample and one charger scan).
//
//glacvet:hotpath
func (b *Bus) chargeAt(ts time.Time) float64 {
	if b.weather == nil || len(b.chargers) == 0 {
		return 0
	}
	nano := ts.UnixNano()
	if b.lastChargeValid && nano == b.lastChargeNano {
		return b.lastChargeW
	}
	cond := b.weather.Sample(ts)
	if len(b.mains) > 0 {
		doy := simenv.DayOfYear(ts)
		for _, mc := range b.mains {
			mc.SetDayOfYear(doy)
		}
	}
	w := CombinedOutputW(b.chargers, cond)
	b.lastChargeNano, b.lastChargeW, b.lastChargeValid = nano, w, true
	return w
}

// advance integrates energy from lastUpdate to now and returns the charger
// wattage at now, so callers that need it (VoltageNow) never re-derive it.
//
//glacvet:hotpath
func (b *Bus) advance(now time.Time) float64 {
	dt := now.Sub(b.lastUpdate)
	if dt <= 0 {
		return b.chargeAt(now) // already integrated to now; memo makes this a lookup
	}
	hours := dt.Hours()
	b.lastUpdate = now

	chargeW := b.chargeAt(now)
	loadW := b.TotalLoadW()
	if b.failed {
		loadW = 0
	}
	b.battery.Transfer(loadW, chargeW, hours)

	rest := b.battery.RestVoltage()
	switch {
	case !b.failed && (b.battery.Depleted() || rest < brownoutVolts):
		b.failed = true
		b.failCount++
		for i := range b.loads { // everything loses power
			b.loads[i].watts = 0
		}
		for _, fn := range b.onFail {
			fn(now)
		}
	case b.failed && rest >= recoverVolts:
		b.failed = false
		for _, fn := range b.onRestore {
			fn(now)
		}
	}
	return chargeW
}
