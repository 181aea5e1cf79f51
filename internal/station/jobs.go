package station

import (
	"fmt"
	"time"

	"repro/internal/comms"
	"repro/internal/hw/dgps"
	"repro/internal/hw/gumstix"
	"repro/internal/power"
	"repro/internal/protocol"
	"repro/internal/storage"
)

// Control-message sizes on the GPRS link.
const (
	stateMsgBytes    = 96
	overrideMsgBytes = 64
	specialMsgBytes  = 1024
	mcuDrainTime     = 2 * time.Minute
	packageTime      = 3 * time.Minute
	finishTime       = 1 * time.Minute
	specialExecTime  = 1 * time.Minute
)

// The §VI log volume: a per-run base plus chatty per-reading debug output,
// the lesson about a first contact in months producing >1 MB of logs.
const (
	// logBaseBytes is the per-run log volume before per-reading output.
	logBaseBytes = 4 * 1024
	// logPerReadingBytes is the debug output per probe reading fetched.
	logPerReadingBytes int64 = 48
)

// initWork binds the daily sequence's work closures, alarm callbacks and
// method values once, at construction. The Fig 4 sequence enqueues the same
// jobs every simulated day; before this, each day built a fresh closure (and
// often a fresh name string) per job, which dominated the fleet-scale
// allocation profile.
func (s *Station) initWork() {
	// MCU alarm callbacks (scheduled daily, re-armed after recoveries).
	s.dailyWakeFn = s.dailyWake
	s.watchdogFn = func(at time.Time) {
		m := s.node.MCU
		if s.node.Host.Powered() {
			s.stats.WatchdogTrips++
			if s.cur != nil {
				s.cur.WatchdogTripped = true
				s.finishRun(at, false)
			}
			m.SetRail(gumstix.Rail, false)
			m.SetRail(comms.GPRSRail, false)
		}
	}
	s.gpsOffFn = func(time.Time) { s.node.MCU.SetRail(dgps.Rail, false) }
	s.gpsReadFn = func(time.Time) {
		m := s.node.MCU
		if !m.Alive() {
			return
		}
		m.SetRail(dgps.Rail, true)
		m.AlarmAfter(dgps.ReadingDuration+30*time.Second, "gps-off", s.gpsOffFn)
	}

	// Chained continuations reuse the same method values.
	s.gpsDrainFn = s.gpsDrainWork
	s.uploadFn = s.uploadWork

	// --- Fig 4, step: "Get readings from MSP" + "Calculate local power state" ---
	// The work and its apply share local and n, so the pair is bound once;
	// the apply runs when the job completes, before the next drain.
	var (
		local power.State
		n     int
	)
	mcuReadingsDone := func(done time.Time) {
		s.cur.LocalState = local
		if n > 0 {
			s.spool.Add(storage.KindHousekeeping, int64(n)*24)
		}
		s.continueAfterPowerState(done, local)
	}
	s.mcuReadingsFn = func(now time.Time) (time.Duration, func(time.Time)) {
		// The drained samples alias the MCU's buffer, which its next
		// housekeeping sample overwrites: read them here, keep the count.
		samples := s.node.MCU.DrainSamples()
		n = len(samples)
		local = s.state
		if avg, ok := power.DailyAverage(samples); ok {
			local = power.StateForVoltage(avg)
		}
		return mcuDrainTime, mcuReadingsDone
	}

	// --- Fig 4, step: "Package data to be sent" ---
	s.packageFn = func(now time.Time) (time.Duration, func(time.Time)) {
		return packageTime, func(time.Time) {
			// §VI log-volume lesson: per-reading debug output adds up fast
			// on the first contact in months.
			logBytes := logBaseBytes + logPerReadingBytes*int64(s.cur.ProbeReadings)
			s.spool.Add(storage.KindLog, logBytes)
		}
	}

	// --- Fig 4, comms: attach → state → data → override → special ---
	s.attachFn = func(now time.Time) (time.Duration, func(time.Time)) {
		s.node.MCU.SetRail(comms.GPRSRail, true)
		return s.node.Modem.AttachTime(), func(done time.Time) {
			if err := s.node.Modem.Attach(done); err != nil {
				s.commsFailed()
				return
			}
			s.cur.CommsOK = true
		}
	}
	s.uploadStateFn = s.transferWork(stateMsgBytes, func(done time.Time) {
		s.srv.UploadState(s.node.Name, s.commsLocal, done)
	})
	s.overrideFn = s.transferWork(overrideMsgBytes, func(time.Time) {
		ov := s.srv.OverrideFor(s.node.Name)
		s.cur.Override = ov
		s.cur.OverrideFetched = true
	})
	s.specialOutFn = func(now time.Time) (time.Duration, func(time.Time)) {
		if !s.node.Modem.Attached() || len(s.pendingOutputs) == 0 {
			return 0, nil
		}
		outs := s.pendingOutputs
		s.pendingOutputs = nil
		var total int64
		for _, o := range outs {
			total += int64(len(o.Output)) + 128
		}
		res := s.node.Modem.TryTransfer(now, total)
		return res.Elapsed, func(done time.Time) {
			if !res.Completed() {
				s.pendingOutputs = outs // retry tomorrow
				return
			}
			for _, o := range outs {
				o.ReceivedAt = done
				s.srv.ReportSpecialOutput(o)
			}
		}
	}
	s.getSpecialFn = func(now time.Time) (time.Duration, func(time.Time)) {
		if !s.node.Modem.Attached() {
			return 0, nil
		}
		res := s.node.Modem.TryTransfer(now, specialMsgBytes)
		if !res.Completed() {
			return res.Elapsed, func(time.Time) { s.commsFailed() }
		}
		sp, ok := s.srv.FetchSpecial(s.node.Name)
		if !ok {
			return res.Elapsed, nil
		}
		return res.Elapsed + specialExecTime, func(done time.Time) {
			s.executeSpecial(sp, done)
		}
	}
	s.earlySpecialFn = func(now time.Time) (time.Duration, func(time.Time)) {
		s.node.MCU.SetRail(comms.GPRSRail, true)
		d := s.node.Modem.AttachTime()
		return d, func(attachDone time.Time) {
			if err := s.node.Modem.Attach(attachDone); err != nil {
				s.node.MCU.SetRail(comms.GPRSRail, false)
				return
			}
			res := s.node.Modem.TryTransfer(attachDone, specialMsgBytes)
			if res.Completed() {
				if sp, ok := s.srv.FetchSpecial(s.node.Name); ok {
					s.executeSpecial(sp, attachDone)
				}
			}
			s.node.Modem.Detach()
			s.node.MCU.SetRail(comms.GPRSRail, false)
		}
	}

	// --- Fig 4, step: "Stop" ---
	s.finishFn = func(now time.Time) (time.Duration, func(time.Time)) {
		return finishTime, func(done time.Time) {
			s.finishRun(done, true)
			m := s.node.MCU
			m.CancelAlarm(s.wdID)
			m.SetRail(comms.GPRSRail, false)
			m.SetRail(gumstix.Rail, false)
		}
	}
}

// --- Fig 4, step: "Get sub-glacial probe data" (base stations only) ---

func (s *Station) enqueueProbeJobs() {
	if s.channel == nil || len(s.probes) == 0 {
		return
	}
	if len(s.probeJobs) != len(s.probes) {
		s.buildProbeJobs()
	}
	for _, pj := range s.probeJobs {
		s.enqueueWork(pj.name, pj.work)
	}
}

// buildProbeJobs caches one named work closure per probe: the cohort is
// fixed at construction, so the per-probe fetch jobs and their fetch states
// need building only once.
func (s *Station) buildProbeJobs() {
	s.probeJobs = make([]probeJob, 0, len(s.probes))
	for _, pr := range s.probes {
		pr := pr
		st := protocol.NewState()
		// The work and its apply share res, so the pair is bound once. The
		// apply runs when the job completes, before this probe's next fetch
		// (tomorrow at the earliest) overwrites res and reuses st's buffer
		// behind res.Got.
		var res protocol.Result
		apply := func(time.Time) {
			s.cur.ProbeReadings += len(res.Got)
			if s.cfg.Priority != nil {
				s.dayReadings = append(s.dayReadings, res.Got...)
			}
			if len(res.Got) > 0 {
				s.spool.Add(storage.KindProbeData, int64(len(res.Got))*24) // packed record size
			}
		}
		work := func(now time.Time) (time.Duration, func(time.Time)) {
			if !pr.Alive(now) {
				return 0, nil // vanished offline, like 3 of the 7 did
			}
			budget := s.remainingWindow(now)
			if budget > 40*time.Minute {
				budget = 40 * time.Minute
			}
			res = s.fetcher.Fetch(now, s.channel, pr, budget, st)
			return res.Elapsed, apply
		}
		s.probeJobs = append(s.probeJobs, probeJob{name: "probe-fetch-" + itoa(pr.ID()), work: work})
	}
}

func (s *Station) enqueueMCUReadings() {
	s.enqueueWork("mcu-readings", s.mcuReadingsFn)
}

// continueAfterPowerState queues the rest of the Fig 4 chain once the local
// power state is known.
func (s *Station) continueAfterPowerState(now time.Time, local power.State) {
	plan := power.PlanFor(local)

	// §VII extension: score the day's data before deciding silence.
	if s.cfg.Priority != nil {
		s.cur.priority = s.cfg.Priority.Evaluate(s.dayReadings)
	}
	s.dayReadings = s.dayReadings[:0]

	// Flowchart: "Power state = 0?" → yes → stop (no GPS drain, no GPRS) —
	// unless the data warrants forcing a marginal-power session.
	if !plan.GPRS {
		if s.cfg.Priority != nil && s.cur.priority >= ForceCommsThreshold {
			s.enqueueForcedComms(local)
		}
		s.enqueueFinish()
		return
	}
	// "Power state > 1?" → yes → "Get GPS files".
	if local > power.State1 {
		s.enqueueGPSDrainOne()
	}
	s.enqueuePackage()
	s.enqueueComms(local)
	s.enqueueFinish()
}

// --- Fig 4, step: "Get GPS files" — strictly file by file (§VI) ---

func (s *Station) enqueueGPSDrainOne() {
	s.enqueueWork("gps-drain", s.gpsDrainFn)
}

// continueGPSDrain chains the next file at the head of the queue.
func (s *Station) continueGPSDrain() {
	s.enqueueWorkFront("gps-drain", s.gpsDrainFn)
}

func (s *Station) gpsDrainWork(now time.Time) (time.Duration, func(time.Time)) {
	f, ok := s.node.GPS.Oldest()
	if !ok {
		return 0, nil
	}
	// The deployed drain had no window awareness: it simply processed the
	// next file and relied on the watchdog as the only bound. A file whose
	// transfer outlives the window is killed mid-transfer (progress lost,
	// file kept) — which is exactly the §VI single-file deadlock when the
	// cable is so degraded that one file can never fit: the run dies here
	// every day, comms never happen, and no remote command can land unless
	// specials execute before the transfer.
	t := f.TransferTime(s.rs232Health)
	return t, func(time.Time) {
		s.spool.Add(storage.KindDGPSFile, int64(f.SizeBytes))
		_ = s.node.GPS.Delete(f.ID)
		s.cur.GPSFilesDrained++
		// More files? Keep draining inside the window.
		s.continueGPSDrain()
	}
}

// --- Fig 4, step: "Package data to be sent" ---

func (s *Station) enqueuePackage() {
	s.enqueueWork("package-data", s.packageFn)
}

// --- Fig 4, comms: upload state → upload data → override → special ---

func (s *Station) enqueueComms(local power.State) {
	// The state-upload job reads this when it applies; the value cannot
	// change between here and there (one session per daily run).
	s.commsLocal = local
	// Attach.
	s.enqueueWork("gprs-attach", s.attachFn)
	// "Upload power state" comes before the data so the peer station's
	// override query later today can already see it.
	s.enqueueWork("upload-state", s.uploadStateFn)
	// "Upload data": one spool item at a time; a failure leaves the rest
	// spooled for tomorrow.
	s.enqueueUploadOne()
	// Pending special outputs ride along (they arrive a day after
	// execution — the §VI 24/48 h feedback lag).
	s.enqueueWork("upload-special-outputs", s.specialOutFn)
	// "Get override power state".
	s.enqueueWork("get-override", s.overrideFn)
	// "Get special" + execute — the as-deployed tail position.
	if !s.cfg.SpecialFirst {
		s.enqueueSpecialFetch()
	}
}

// transferWork builds the work closure for a small control message over the
// modem, applying fn on success. Called once per message kind at
// construction.
func (s *Station) transferWork(bytes int64, fn func(done time.Time)) workFn {
	return func(now time.Time) (time.Duration, func(time.Time)) {
		if !s.node.Modem.Attached() {
			return 0, nil
		}
		res := s.node.Modem.TryTransfer(now, bytes)
		return res.Elapsed, func(done time.Time) {
			if res.Completed() {
				fn(done)
			} else {
				s.commsFailed()
			}
		}
	}
}

// enqueueUploadOne sends the oldest spool item, then chains itself at the
// queue head while items, window and session allow.
func (s *Station) enqueueUploadOne() {
	s.enqueueWork("upload-data", s.uploadFn)
}

func (s *Station) uploadWork(now time.Time) (time.Duration, func(time.Time)) {
	if !s.node.Modem.Attached() {
		return 0, nil
	}
	item, ok := s.spool.Peek()
	if !ok {
		return 0, nil
	}
	need := s.node.Modem.TransferTime(item.Bytes)
	if need > s.remainingWindow(now) {
		return 0, nil // leave it spooled; file-by-file, day by day
	}
	res := s.node.Modem.TryTransfer(now, item.Bytes)
	return res.Elapsed, func(time.Time) {
		if !res.Completed() {
			// Drop-out: session is gone; everything else waits.
			s.commsFailed()
			return
		}
		s.srv.UploadData(s.node.Name, item.Bytes)
		_ = s.spool.MarkSent(item.ID)
		s.cur.UploadedBytes += item.Bytes
		s.enqueueWorkFront("upload-data", s.uploadFn)
	}
}

// enqueueSpecialFetch downloads and executes the next special command.
func (s *Station) enqueueSpecialFetch() {
	s.enqueueWork("get-special", s.getSpecialFn)
}

// enqueueEarlySpecial is the §VI fix: a minimal comms session before any
// transfer, so remote code can unblock a wedged station.
func (s *Station) enqueueEarlySpecial() {
	s.enqueueWork("early-special", s.earlySpecialFn)
}

func (s *Station) commsFailed() {
	s.stats.CommsFailures++
	if s.cur != nil {
		s.cur.CommsOK = false
	}
	s.node.Modem.Detach()
	s.node.MCU.SetRail(comms.GPRSRail, false)
}

// --- Fig 4, step: "Stop" ---

func (s *Station) enqueueFinish() {
	s.enqueueWork("finish", s.finishFn)
}

// finishRun closes out the daily report and adopts the next power state.
func (s *Station) finishRun(at time.Time, clean bool) {
	if s.cur == nil {
		return
	}
	r := *s.cur
	r.WallElapsed = at.Sub(s.runStart)
	if clean {
		eff := power.Effective(r.LocalState, r.Override, r.OverrideFetched)
		r.Effective = eff
		s.state = eff
		s.node.MCU.SetLastRun(at)
		s.stats.CompletedRuns++
	} else {
		r.Effective = s.state
	}
	// Tomorrow's dGPS duty cycle follows the adopted state. (The daily wake
	// was already scheduled at wake time.)
	s.scheduleGPS(at)
	s.cur = nil
	s.reports = append(s.reports, r)
	for _, fn := range s.onReport {
		fn(r)
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
