package deploy

import (
	"runtime"
	"testing"
)

// baselineBytesPerStationDay is what the budget test below measured before
// the probe data path (probe store, fetchers, MCU housekeeping buffer,
// alarm records) reused its buffers: 70.9 KB allocated per station-day on
// the second day of an 8-station fleet (go1.24, linux/amd64). The same
// measurement now reads about 7 KB, and about 3 KB from the third day on
// (about 18 KB and 7 KB while the MCU still sampled enclosure channels
// and the station kept a CF-card map and named its spool items).
const baselineBytesPerStationDay = 70900

// TestFleetDayAllocBudget is the fleet-level counterpart of the per-layer
// AllocsPerRun pins: a whole warmed station day, with its probe fetches,
// housekeeping drain, alarms and uploads, must allocate at most half of
// what it did before the probe data path went allocation-free.
func TestFleetDayAllocBudget(t *testing.T) {
	const stations = 8
	d, err := Build(FleetTopology(42, stations, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunDays(1); err != nil { // warm: buffers reach a day's size
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.RunDays(1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perStationDay := (after.TotalAlloc - before.TotalAlloc) / stations
	t.Logf("%d bytes allocated per station-day (budget %d)", perStationDay, baselineBytesPerStationDay/2)
	if perStationDay > baselineBytesPerStationDay/2 {
		t.Fatalf("a warmed fleet day allocates %d bytes per station-day, budget %d (half of %d)",
			perStationDay, baselineBytesPerStationDay/2, baselineBytesPerStationDay)
	}
}
