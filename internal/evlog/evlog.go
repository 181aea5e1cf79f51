// Package evlog records, replays and diffs the deterministic event stream
// of a simenv.Simulator. The simulator's determinism contract (DESIGN.md
// §3) says a run's executed event sequence is a pure function of its
// topology and seed; this package makes that sequence inspectable:
//
//   - a Writer observes every executed event through the simulator's
//     OnEvent hook and appends one compact record per event — (seq, atSec,
//     atNsec, name) plus a chained digest — to a framed, append-only
//     binary log;
//   - a Verifier replays a recorded log against a fresh run of the same
//     scenario and reports the first step-level divergence ("event 48121:
//     expected base2.gprs.retry at T, got X"), instead of the golden
//     harness's "output changed";
//   - Diff compares two logs record-for-record and localizes the first
//     divergent event with surrounding context.
//
// # Log format
//
// A log is one header line, a sequence of varint-framed records, a
// zero-length terminator frame, and one trailer line:
//
//	glacsweb-evlog 1 <header-JSON>\n
//	<record frame>*
//	0x00
//	<trailer-JSON>\n
//
// Each record frame is uvarint(len(payload)) followed by the payload
// (always >= 1 byte, so a zero length unambiguously terminates the record
// stream). A payload encodes, in order:
//
//	varint   delta of at.Unix() from the previous record (first: from 0)
//	varint   delta of at.Nanosecond() from the previous record
//	uvarint  name reference: 0 introduces a new name (followed by
//	         uvarint(len) + name bytes, assigned the next id, starting
//	         at 1); a nonzero value references an earlier id
//	byte     chain check: the low byte of the running FNV-64a digest
//	         folded over every preceding payload byte of the log
//
// Event names repeat heavily (a run has a few dozen to a few thousand
// distinct names over tens of thousands of events), so the name table
// keeps steady-state records at a handful of bytes. The chain byte makes
// the log self-verifying at record granularity: flipping any byte breaks
// the chain at that record, so a reader names the exact event index that
// was corrupted rather than failing with a bad diff later. The trailer seals
// the whole file with the record count and the full 64-bit final digest.
//
// The header carries everything needed to re-run a plain scenario run
// (scenario, seed, parameter overrides, horizon) plus the sweep plan
// fingerprint when the log was recorded by a campaign cell. It is the
// log's JSON sidecar metadata; tools can read the first line alone to
// identify a log.
package evlog

import (
	"fmt"
	"time"
)

// Magic heads every event log file, followed by the format version and
// the header JSON.
const Magic = "glacsweb-evlog"

// FormatVersion is the log encoding version. A reader refuses logs of
// any other version: the encoding has no compatibility story, a version
// bump simply obsoletes old logs (they are re-recordable artifacts, not
// archives).
const FormatVersion = 1

// Header is the log's JSON sidecar metadata, written on the first line
// of the file. Scenario, Seed, Stations, Probes, Days, Start and
// SpecialFirst describe the run precisely enough for Rebuild to
// reconstruct it; Fingerprint ties a per-cell log to its sweep plan; a
// non-empty Hooks names the registered hook set that drove the run —
// such a log still records, diffs and byte-compares, but cannot be
// replayed from the header alone (the hook's events are not rebuildable
// here), so Rebuild refuses it by name.
//
//glacvet:wire
type Header struct {
	// Scenario is the registered scenario name the run was built from.
	Scenario string `json:"scenario"`
	// Seed drove every stochastic process of the run.
	Seed int64 `json:"seed"`
	// Stations is the fleet-size parameter (0 = the scenario default).
	Stations int `json:"stations,omitempty"`
	// Probes is the per-base cohort-size parameter (0 = default).
	Probes int `json:"probes,omitempty"`
	// Days is the resolved run horizon in days.
	Days int `json:"days"`
	// Start is the "YYYY-MM-DD" start-date override ("" = scenario default).
	Start string `json:"start,omitempty"`
	// SpecialFirst marks the §VI special-before-upload fix applied fleet-wide.
	SpecialFirst bool `json:"special_first,omitempty"`
	// Fingerprint is the sweep plan fingerprint for a per-cell recording
	// ("" for a single run outside any plan).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Hooks names the registered hook set (campaign drivers, samplers)
	// attached to the run, which a replay cannot rebuild ("" = plain run).
	Hooks string `json:"hooks,omitempty"`
}

// Trailer seals the log: written after the terminator frame, it pins the
// record count and the final chained digest so truncation or corruption
// anywhere in the file is detected even if every per-record check byte
// happened to collide.
//
//glacvet:wire
type Trailer struct {
	// Records is the number of event records in the log.
	Records uint64 `json:"records"`
	// Chain is the final FNV-64a chain digest over every record payload,
	// as 16 hex digits.
	Chain string `json:"chain"`
}

// Record is one executed event: its sequence index, execution time and
// interned name. Seq is the 0-based position in the executed order —
// exactly Simulator.Processed() at the instant the event ran.
type Record struct {
	Seq    uint64
	AtSec  int64
	AtNsec int32
	Name   string
}

// At returns the record's execution time.
func (r Record) At() time.Time { return time.Unix(r.AtSec, int64(r.AtNsec)).UTC() }

// String renders the record for divergence and diff reports.
func (r Record) String() string {
	return fmt.Sprintf("%d: %s at %s", r.Seq, r.Name, r.At().Format(time.RFC3339Nano))
}

// fnvOffset/fnvPrime are the FNV-64a parameters of the chain digest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// chainUpdate folds p into the running chain digest. FNV-64a rather than
// a cryptographic hash: the chain guards against accidental corruption
// and drift, one multiply-xor per byte, on the recording hot path.
//
//glacvet:hotpath
func chainUpdate(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}
