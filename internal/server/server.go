// Package server implements the Southampton server — the coordination
// point that replaced direct inter-station communication in the Iceland
// architecture (§III).
//
// Stations never talk to each other. Each uploads its power state and data
// during its own daily window and then asks for an "override state"; the
// server answers with the *minimum* of the stations' last-reported states
// (and any manual override a researcher has set). That keeps the dGPS duty
// cycles of the base and reference stations in lock-step without a radio
// link between them, with at most one day of lag. The server also
// distributes "special" command scripts and accepts the immediate MD5
// beacon used by the remote-update mechanism.
//
// The Server type is pure in-memory logic driven by explicit timestamps so
// the simulator can use it directly.
package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/power"
)

// StationRecord is the server's view of one station.
type StationRecord struct {
	// Name identifies the station.
	Name string
	// LastState is the most recent power state the station uploaded.
	LastState power.State
	// lastStateAt is when LastState arrived.
	lastStateAt time.Time
	// BytesReceived is the lifetime data volume from this station.
	BytesReceived int64
	// Uploads counts data upload calls.
	Uploads int
}

// Special is a remote command script queued for a station.
type Special struct {
	// Script is the shell payload.
	Script string
}

// MD5Report is one checksum beacon from a station.
type MD5Report struct {
	// Artifact names the downloaded file.
	Artifact string
	// Sum is the hex digest the station computed.
	Sum string
	// At is the beacon arrival time.
	At time.Time
}

// SpecialOutput is the (day-delayed) log output of an executed special.
type SpecialOutput struct {
	// Output is the captured text.
	Output string
	// ExecutedAt is when the script ran on the station.
	ExecutedAt time.Time
	// ReceivedAt is when the output reached Southampton.
	ReceivedAt time.Time
}

// Server is the Southampton coordination server.
type Server struct {
	mu sync.Mutex

	stations map[string]*StationRecord
	// reported[st] counts the stations whose last state upload, at a
	// non-zero time, reported st. The min-rule reads its lowest non-empty
	// entry instead of scanning every record.
	reported [power.State3 + 1]int
	manual   map[string]power.State // researcher-set override per station
	specials map[string][]Special
	md5s     []MD5Report
	outputs  []SpecialOutput
}

// New returns an empty server.
func New() *Server {
	return &Server{
		stations: make(map[string]*StationRecord),
		manual:   make(map[string]power.State),
		specials: make(map[string][]Special),
	}
}

// UploadState records a station's power state. An upload at the zero time
// leaves the station out of the min-rule until it uploads again. st must
// be a valid state.
func (s *Server) UploadState(station string, st power.State, at time.Time) {
	if !st.Valid() {
		panic(fmt.Sprintf("server: station %s uploaded invalid power state %d", station, int(st)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.record(station)
	if !r.lastStateAt.IsZero() {
		s.reported[r.LastState]--
	}
	r.LastState = st
	r.lastStateAt = at
	if !at.IsZero() {
		s.reported[st]++
	}
}

// UploadData records a data upload of the given volume.
func (s *Server) UploadData(station string, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.record(station)
	r.BytesReceived += bytes
	r.Uploads++
}

// OverrideFor returns the override state for a station: the minimum of
// every station's last-reported state and any manual override set for the
// requester. With no information at all it returns State3 (no restriction).
// Asking makes the station known to the server.
func (s *Server) OverrideFor(station string) power.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(station)

	st := power.State3
	for i, n := range s.reported {
		if n > 0 {
			st = power.State(i)
			break
		}
	}
	if m, ok := s.manual[station]; ok {
		st = power.MinState(st, m)
	}
	return st
}

// SetManualOverride pins a station's override ("easy manual overriding of
// the power states if required"). The station-side clamps still apply.
func (s *Server) SetManualOverride(station string, st power.State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manual[station] = st
}

// ClearManualOverride removes a manual override.
func (s *Server) ClearManualOverride(station string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.manual, station)
}

// PushSpecial queues a command script for a station.
func (s *Server) PushSpecial(station, script string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specials[station] = append(s.specials[station], Special{Script: script})
}

// FetchSpecial pops the oldest pending special for the station, if any.
// Asking makes the station known to the server.
func (s *Server) FetchSpecial(station string) (Special, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(station)
	q := s.specials[station]
	if len(q) == 0 {
		return Special{}, false
	}
	sp := q[0]
	s.specials[station] = q[1:]
	return sp, true
}

// ReportMD5 records an immediate checksum beacon (the HTTP-GET workaround
// for the 24-hour log delay).
func (s *Server) ReportMD5(station, artifact, sum string, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(station) // a beacon makes the station known to the server
	s.md5s = append(s.md5s, MD5Report{Artifact: artifact, Sum: sum, At: at})
}

// MD5Reports returns all beacons, oldest first.
func (s *Server) MD5Reports() []MD5Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MD5Report, len(s.md5s))
	copy(out, s.md5s)
	return out
}

// ReportSpecialOutput records the day-delayed log output of a special.
func (s *Server) ReportSpecialOutput(o SpecialOutput) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outputs = append(s.outputs, o)
}

// SpecialOutputs returns all recorded special outputs.
func (s *Server) SpecialOutputs() []SpecialOutput {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpecialOutput, len(s.outputs))
	copy(out, s.outputs)
	return out
}

// Station returns a copy of a station's record.
func (s *Server) Station(name string) (StationRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.stations[name]
	if !ok {
		return StationRecord{}, false
	}
	return *r, true
}

// Stations returns copies of all records sorted by name.
func (s *Server) Stations() []StationRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StationRecord, 0, len(s.stations))
	for _, r := range s.stations {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// record returns (creating if needed) the record for a station. Callers
// must hold s.mu.
func (s *Server) record(name string) *StationRecord {
	r, ok := s.stations[name]
	if !ok {
		r = &StationRecord{Name: name}
		s.stations[name] = r
	}
	return r
}
