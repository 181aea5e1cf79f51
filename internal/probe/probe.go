// Package probe simulates the sub-glacial probes of the Glacsweb
// deployment: sensor nodes hot-water-drilled ~70 m under the ice surface,
// "equipped with an array of sensors chosen to measure changes in
// conductivity, orientation and pressure" (§I).
//
// Each probe samples on its own schedule, buffers readings locally, and
// answers the base station's fetch protocol. Two behaviours from the paper
// are central:
//
//   - Fig 6: electrical conductivity rises at the end of winter as
//     melt-water reaches the glacier bed — reproduced from the weather
//     model's melt index with a per-probe basal lag.
//   - §V: probes fail permanently over time (4/7 alive after one year,
//     data from 2 after 18 months) — reproduced with an exponential
//     survival model.
package probe

import (
	"fmt"
	"math"
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

// DefaultSampleInterval is how often a probe records a reading. Hourly
// sampling over a ~4-month offline stretch accumulates the ~3000 readings
// §V describes arriving in one summer fetch.
const DefaultSampleInterval = time.Hour

// ReadingBytes is the on-air size of one reading packet.
const ReadingBytes = 64

// Reading is one probe measurement.
type Reading struct {
	// Seq is the probe-local sequence number, starting at 1.
	Seq uint64
	// ConductivityUS is electrical conductivity in µS, the Fig 6 signal
	// and the one channel the model synthesises.
	ConductivityUS float64
}

// bufferCap is how many readings the probe's flash holds.
const bufferCap = 20000

// Config parameterises a probe.
type Config struct {
	// id is the probe number (the paper's probes 21, 24, 25...).
	id int
	// BaseConductivityUS is the dry-winter conductivity floor.
	BaseConductivityUS float64
	// MeltConductivityUS is the additional conductivity at full melt.
	MeltConductivityUS float64
	// BasalLagDays delays the melt signal reaching this probe's bed site.
	BasalLagDays float64
	// MeanLifetime is the exponential-survival mean life. The paper's
	// 4/7-after-one-year gives a mean of ~1.8 years.
	MeanLifetime time.Duration
}

// DefaultConfig returns plausible per-probe parameters, varied by ID so a
// cohort does not behave identically (as Fig 6's three traces do not).
func DefaultConfig(id int) Config {
	n := noise(int64(id), "probecfg", 0)
	return Config{
		id:                 id,
		BaseConductivityUS: 0.8 + 1.6*n,
		MeltConductivityUS: 7 + 8*noise(int64(id), "probecfg", 1),
		BasalLagDays:       2 + 8*noise(int64(id), "probecfg", 2),
		MeanLifetime:       time.Duration(1.8 * 365.25 * 24 * float64(time.Hour)),
	}
}

// Probe is one simulated sub-glacial node.
type Probe struct {
	sim *simenv.Simulator
	wx  *weather.Model
	cfg Config

	// buf[head:] holds the unconfirmed readings, oldest first. Confirmed
	// readings leave memory at MarkComplete; the flash they would still
	// occupy is tracked logically through oldest, so the bufferCap
	// drop-oldest rule counts them exactly as a store that kept them.
	buf       []Reading
	head      int
	oldest    uint64 // oldest seq still held in (logical) flash
	nextSeq   uint64
	completed uint64 // highest seq the base has confirmed received

	failAt time.Time
	ticker *simenv.Ticker
}

// New constructs a probe from cfg, which DefaultConfig makes, and starts
// its sampling schedule. The probe's permanent-failure time is drawn
// deterministically from (sim seed, ID).
func New(sim *simenv.Simulator, wx *weather.Model, cfg Config) *Probe {
	p := &Probe{sim: sim, wx: wx, cfg: cfg, oldest: 1}
	// The base fetches daily, so a day of readings is the store's working
	// size; longer offline stretches grow it once.
	p.buf = make([]Reading, 0, min(bufferCap, int(24*time.Hour/DefaultSampleInterval)+1))

	// Exponential failure time: -mean * ln(U).
	u := noise(sim.Seed(), "probefail", uint64(cfg.id))
	if u < 1e-12 {
		u = 1e-12
	}
	life := time.Duration(-float64(cfg.MeanLifetime) * math.Log(u))
	p.failAt = sim.Now().Add(life)

	p.ticker = sim.Every(sim.Now().Add(DefaultSampleInterval), DefaultSampleInterval,
		fmt.Sprintf("probe%d.sample", cfg.id), p.sample)
	return p
}

// ID returns the probe number.
func (p *Probe) ID() int { return p.cfg.id }

// Alive reports whether the probe is still operating at now.
func (p *Probe) Alive(now time.Time) bool { return now.Before(p.failAt) }

//glacvet:hotpath
func (p *Probe) sample(now time.Time) {
	if !p.Alive(now) {
		p.ticker.Stop()
		return
	}
	p.nextSeq++
	r := Reading{
		Seq:            p.nextSeq,
		ConductivityUS: p.ConductivityAt(now),
	}
	if p.nextSeq-p.oldest >= bufferCap {
		// Flash is full: the oldest reading goes, confirmed or not. An
		// unconfirmed one is buf[head]; a confirmed one is already gone.
		if p.oldest > p.completed {
			p.head++
		}
		p.oldest++
	}
	if r.Seq <= p.completed {
		return // already confirmed by a MarkComplete past LastSeq
	}
	if len(p.buf) == cap(p.buf) && p.head > 0 {
		p.compact(p.head)
	}
	p.buf = append(p.buf, r)
}

// compact moves buf[from:] to the front of the backing array.
//
//glacvet:hotpath
func (p *Probe) compact(from int) {
	n := copy(p.buf, p.buf[from:])
	p.buf = p.buf[:n]
	p.head = 0
}

// ConductivityAt returns the conductivity signal at now: a winter floor
// rising with the (lagged) melt index, plus measurement noise. This is the
// Fig 6 signal.
func (p *Probe) ConductivityAt(now time.Time) float64 {
	lag := time.Duration(p.cfg.BasalLagDays * 24 * float64(time.Hour))
	melt := 0.0
	if p.wx != nil {
		melt = p.wx.MeltIndex(now.Add(-lag))
	}
	n := noise(p.sim.Seed()+int64(p.cfg.id), "cond", uint64(now.Unix()/3600))
	return p.cfg.BaseConductivityUS + p.cfg.MeltConductivityUS*melt + 0.4*(n-0.5)
}

// --- Reading store / protocol server side ---

// PendingCount returns the number of readings not yet confirmed fetched.
func (p *Probe) PendingCount() int {
	return len(p.buf) - p.head
}

// PendingView returns the unconfirmed readings, oldest first, without
// copying: the slice aliases the probe's store. It is valid until the
// probe next samples or MarkComplete runs, and callers must not modify
// it. The fetchers read it within one synchronous session.
func (p *Probe) PendingView() []Reading {
	return p.buf[p.head:]
}

// MarkComplete confirms that the base station holds everything up to and
// including seq. §V: "the task was not marked as complete in the probes; so
// many missing readings were obtained in subsequent days" — completion is
// only ever advanced by the base, never assumed by the probe.
//
// Confirmed readings leave memory here: the unconfirmed suffix is compacted
// to the front of the store, so the buffer does not regrow across days.
//
//glacvet:hotpath
func (p *Probe) MarkComplete(seq uint64) {
	if seq <= p.completed {
		return
	}
	p.completed = seq
	i := p.head
	for i < len(p.buf) && p.buf[i].Seq <= seq {
		i++
	}
	p.compact(i)
}

func noise(seed int64, tag string, k uint64) float64 {
	return simenv.HashNoise(seed, tag, k)
}

// Survival returns the fraction of a cohort of n probes (IDs 1..n) that
// would still be alive after d, using the same deterministic draws as New.
// It exists for the §V survival experiment (4/7 after one year).
func Survival(seed int64, n int, mean time.Duration, d time.Duration) float64 {
	alive := 0
	for id := 1; id <= n; id++ {
		u := noise(seed, "probefail", uint64(id))
		if u < 1e-12 {
			u = 1e-12
		}
		life := time.Duration(-float64(mean) * math.Log(u))
		if life > d {
			alive++
		}
	}
	return float64(alive) / float64(n)
}
