package evlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/simenv"
)

// recordSim runs drive on a fresh simulator with a recorder attached and
// returns the sealed log bytes.
func recordSim(t testing.TB, hdr Header, seed int64, drive func(s *simenv.Simulator)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	s := simenv.New(seed)
	w.Attach(s)
	drive(s)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tickDrive schedules n one-second-spaced events named by pick(i) and
// runs the simulator to completion.
func tickDrive(n int, pick func(i int) string) func(s *simenv.Simulator) {
	return func(s *simenv.Simulator) {
		for i := 0; i < n; i++ {
			s.At(s.Now().Add(time.Duration(i+1)*time.Second), pick(i), func(time.Time) {})
		}
		_ = s.RunFor(time.Hour)
	}
}

func constName(string) func(int) string { return func(int) string { return "tick" } }

func TestRoundTrip(t *testing.T) {
	hdr := Header{Scenario: "synthetic", Seed: 7, Days: 1}
	names := []string{"alpha", "beta", "alpha", "gamma", "beta"}
	data := recordSim(t, hdr, 7, tickDrive(len(names), func(i int) string { return names[i] }))
	l, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if l.header != hdr {
		t.Fatalf("header round-tripped as %+v, want %+v", l.header, hdr)
	}
	if l.Len() != len(names) {
		t.Fatalf("decoded %d records, want %d", l.Len(), len(names))
	}
	if l.trailer.Records != uint64(len(names)) {
		t.Fatalf("trailer records = %d, want %d", l.trailer.Records, len(names))
	}
	start := simenv.Epoch
	for i := range l.Len() {
		r := l.Record(i)
		if r.Seq != uint64(i) {
			t.Errorf("record %d: seq %d", i, r.Seq)
		}
		if r.Name != names[i] {
			t.Errorf("record %d: name %q, want %q", i, r.Name, names[i])
		}
		want := start.Add(time.Duration(i+1) * time.Second)
		if !r.At().Equal(want) {
			t.Errorf("record %d: at %s, want %s", i, r.At(), want)
		}
	}
}

// The header line of a log with every header field set is pinned byte
// for byte, and reads back equal: no golden log carries stations, probes,
// start, special-first, fingerprint and hooks at once.
func TestHeaderLineWithEveryField(t *testing.T) {
	hdr := Header{
		Scenario: "fleet-N", Seed: 42, Stations: 3, Probes: 2, Days: 2,
		Start: "2009-07-15", SpecialFirst: true, Fingerprint: "0123456789abcdef", Hooks: "campaign/x5",
	}
	data := recordSim(t, hdr, 42, tickDrive(2, constName("")))
	const want = `glacsweb-evlog 1 {"scenario":"fleet-N","seed":42,"stations":3,"probes":2,"days":2,` +
		`"start":"2009-07-15","special_first":true,"fingerprint":"0123456789abcdef","hooks":"campaign/x5"}`
	if line, _, _ := strings.Cut(string(data), "\n"); line != want {
		t.Fatalf("header line\n%s\nwant\n%s", line, want)
	}
	l, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if l.header != hdr {
		t.Fatalf("header read back as %+v, want %+v", l.header, hdr)
	}
}

// Corrupting any single record byte must fail the read naming that exact
// record: the per-record chain check byte localizes the damage.
func TestCorruptionNamesTheRecord(t *testing.T) {
	data := recordSim(t, Header{Scenario: "synthetic"}, 1, tickDrive(50, constName("")))
	clean, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() != 50 {
		t.Fatalf("recorded %d events, want 50", clean.Len())
	}
	// Find the start of the record stream (after the header line), then
	// corrupt one byte inside a mid-stream record. Steady-state records
	// here are 4 bytes framed (1 length + dSec, dNs, name id, check), so
	// record 20's frame starts well clear of both ends.
	headerEnd := bytes.IndexByte(data, '\n') + 1
	// Skip the first record (it introduces the name) then 19 fixed-size
	// frames; corrupt the name-id byte of record 20.
	firstLen := int(data[headerEnd])
	off := headerEnd + 1 + firstLen // record 1's frame
	for i := 1; i < 20; i++ {
		off += 1 + int(data[off])
	}
	corrupted := append([]byte(nil), data...)
	corrupted[off+3] ^= 0x01 // inside record 20's payload
	_, err = Read(bytes.NewReader(corrupted))
	if err == nil {
		t.Fatal("corrupted log read cleanly")
	}
	if !strings.Contains(err.Error(), "record 20") {
		t.Fatalf("corruption error %q does not name record 20", err)
	}
}

func TestTruncatedLog(t *testing.T) {
	data := recordSim(t, Header{Scenario: "synthetic"}, 1, tickDrive(10, constName("")))
	for _, cut := range []int{len(data) - 1, len(data) / 2} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("log truncated to %d of %d bytes read cleanly", cut, len(data))
		}
	}
}

func TestTrailerCountMismatch(t *testing.T) {
	data := recordSim(t, Header{Scenario: "synthetic"}, 1, tickDrive(10, constName("")))
	forged := bytes.Replace(data, []byte(`"records":10`), []byte(`"records":9`), 1)
	if bytes.Equal(forged, data) {
		t.Fatal("trailer replace found nothing")
	}
	_, err := Read(bytes.NewReader(forged))
	if err == nil || !strings.Contains(err.Error(), "trailer promises") {
		t.Fatalf("forged trailer count: err = %v", err)
	}
}

// oneRecordLog hand-builds a sealed one-record log whose record carries
// the given time deltas, with a correct chain byte and trailer, so only
// the decoded values themselves can make it unreadable.
func oneRecordLog(dSec, dNs int64) []byte {
	p := binary.AppendVarint(nil, dSec)
	p = binary.AppendVarint(p, dNs)
	p = binary.AppendUvarint(p, 0) // introduce a name
	p = binary.AppendUvarint(p, 4)
	p = append(p, "tick"...)
	chain := chainUpdate(fnvOffset, p)
	p = append(p, byte(chain))
	out := fmt.Appendf(nil, "%s %d {\"scenario\":\"synthetic\"}\n", Magic, FormatVersion)
	out = binary.AppendUvarint(out, uint64(len(p)))
	out = append(out, p...)
	return fmt.Appendf(out, "\x00{\"records\":1,\"chain\":\"%016x\"}\n", chain)
}

// A record's running nanosecond must stay inside [0, 1e9): the writer
// only ever stores time.Nanosecond(), so anything else is a forged or
// damaged log, refused naming the record rather than truncated or kept.
func TestReadRefusesImpossibleNanoseconds(t *testing.T) {
	if _, err := Read(bytes.NewReader(oneRecordLog(5, 999_999_999))); err != nil {
		t.Fatalf("in-range nanosecond refused: %v", err)
	}
	for _, dNs := range []int64{1 << 32, 2e9, -5} {
		l, err := Read(bytes.NewReader(oneRecordLog(5, dNs)))
		if err == nil {
			t.Errorf("dNs=%d read cleanly as AtNsec=%d", dNs, l.Record(0).AtNsec)
			continue
		}
		if !strings.Contains(err.Error(), "record 0: ") {
			t.Errorf("dNs=%d: error %q does not name record 0", dNs, err)
		}
	}
}

// FuzzRead feeds arbitrary bytes to the log reader. It must never panic,
// every record it accepts must carry a nanosecond in [0, 1e9), and an
// accepted log written again through the Writer must decode to the same
// header and records.
func FuzzRead(f *testing.F) {
	f.Add(recordSim(f, Header{Scenario: "synthetic", Seed: 7, Days: 1}, 7,
		tickDrive(5, func(i int) string { return []string{"alpha", "beta"}[i%2] })))
	f.Add(oneRecordLog(5, 2e9))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, l.header)
		if err != nil {
			t.Fatal(err)
		}
		for i := range l.Len() {
			rec := l.Record(i)
			if rec.AtNsec < 0 || rec.AtNsec >= 1e9 {
				t.Fatalf("accepted record %s with AtNsec %d", rec, rec.AtNsec)
			}
			w.Observe(rec.Name, rec.At())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-written log does not read: %v", err)
		}
		if again.header != l.header || again.Len() != l.Len() {
			t.Fatalf("re-written log decodes differently:\n%+v %d records\n%+v %d records", l.header, l.Len(), again.header, again.Len())
		}
		for i := range l.Len() {
			if got, want := again.Record(i), l.Record(i); got != want {
				t.Fatalf("re-written log decodes record %d as %+v, want %+v", i, got, want)
			}
		}
	})
}

func TestDiffIdenticalAndPerturbed(t *testing.T) {
	hdr := Header{Scenario: "synthetic", Seed: 3}
	mk := func(n int, pick func(int) string) *Log {
		data := recordSim(t, hdr, 3, tickDrive(n, pick))
		l, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	base := mk(10, func(int) string { return "tick" })
	same := mk(10, func(int) string { return "tick" })
	if d := Diff(base, same); d != nil {
		t.Fatalf("identical logs diff as %+v", d)
	}
	// Perturb exactly one event: the 5th executed event (index 4) runs
	// under a different name.
	perturbed := mk(10, func(i int) string {
		if i == 4 {
			return "tock"
		}
		return "tick"
	})
	d := Diff(base, perturbed)
	if d == nil {
		t.Fatal("perturbed log diffs clean")
	}
	if d.Index != 4 || !d.HaveWant || !d.HaveGot || d.Want.Name != "tick" || d.Got.Name != "tock" {
		t.Fatalf("diff = %+v, want divergence at event 4 tick/tock", d)
	}
	// The report is pinned byte for byte: it is what evdiff prints.
	const wantReport = `logs diverge at event 4:
  A 4: tick at 2008-09-01T00:00:05Z
  B 4: tock at 2008-09-01T00:00:05Z
context (events 1..4):
  A 1: tick at 2008-09-01T00:00:02Z
  B 1: tick at 2008-09-01T00:00:02Z
  A 2: tick at 2008-09-01T00:00:03Z
  B 2: tick at 2008-09-01T00:00:03Z
  A 3: tick at 2008-09-01T00:00:04Z
  B 3: tick at 2008-09-01T00:00:04Z
  A 4: tick at 2008-09-01T00:00:05Z
  B 4: tock at 2008-09-01T00:00:05Z`
	if report := d.Report(base, perturbed); report != wantReport {
		t.Errorf("diff report\n%s\nwant\n%s", report, wantReport)
	}
	// One log a strict prefix of the other (the same run recorded for 7
	// events): divergence at the tail.
	short := mk(7, func(int) string { return "tick" })
	d = Diff(base, short)
	if d == nil || d.Index != 7 || !d.HaveWant || d.HaveGot {
		t.Fatalf("prefix diff = %+v, want A-only divergence at 7", d)
	}
	const wantPrefix = `log B ends at event 7; A continues with:
  A 7: tick at 2008-09-01T00:00:08Z
context (events 4..7):
  A 4: tick at 2008-09-01T00:00:05Z
  B 4: tick at 2008-09-01T00:00:05Z
  A 5: tick at 2008-09-01T00:00:06Z
  B 5: tick at 2008-09-01T00:00:06Z
  A 6: tick at 2008-09-01T00:00:07Z
  B 6: tick at 2008-09-01T00:00:07Z
  A 7: tick at 2008-09-01T00:00:08Z
  B 7: (log ended)`
	if report := d.Report(base, short); report != wantPrefix {
		t.Errorf("prefix report\n%s\nwant\n%s", report, wantPrefix)
	}
}

func TestVerifierCatchesPerturbation(t *testing.T) {
	data := recordSim(t, Header{Scenario: "synthetic"}, 1, tickDrive(10, constName("")))
	l, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh identical run verifies clean.
	s := simenv.New(1)
	v := AttachVerifier(s, l)
	tickDrive(10, constName(""))(s)
	if d := v.Finish(); d != nil {
		t.Fatalf("identical run diverged: %v", d)
	}
	// A run whose 5th event differs is caught at index 4, and the
	// simulation stops there rather than running on.
	s = simenv.New(1)
	v = AttachVerifier(s, l)
	tickDrive(10, func(i int) string {
		if i == 4 {
			return "rogue"
		}
		return "tick"
	})(s)
	d := v.Finish()
	if d == nil || d.Index != 4 || d.Want.Name != "tick" || d.Got.Name != "rogue" {
		t.Fatalf("divergence = %+v, want tick/rogue at event 4", d)
	}
	if got, want := d.Error(), "event 4: expected tick at 2008-09-01T00:00:05Z, got rogue at 2008-09-01T00:00:05Z"; got != want {
		t.Fatalf("divergence error %q, want %q", got, want)
	}
	if got := s.Processed(); got != 5 {
		t.Fatalf("simulation ran %d events past the divergence, want stop after 5", got)
	}
	// A run that ends early diverges at the log's next expected event.
	s = simenv.New(1)
	v = AttachVerifier(s, l)
	tickDrive(6, constName(""))(s)
	d = v.Finish()
	if d == nil || d.Index != 6 || !d.HaveWant || d.HaveGot {
		t.Fatalf("early-end divergence = %+v, want log-only at 6", d)
	}
	if got, want := d.Error(), "event 6: the run ended after 6 events but the log expects tick at 2008-09-01T00:00:07Z"; got != want {
		t.Fatalf("early-end divergence error %q, want %q", got, want)
	}
	// A run that goes on past the log diverges at its first extra event.
	s = simenv.New(1)
	v = AttachVerifier(s, l)
	tickDrive(12, constName(""))(s)
	d = v.Finish()
	if d == nil || d.Index != 10 || d.HaveWant || !d.HaveGot {
		t.Fatalf("late-end divergence = %+v, want run-only at 10", d)
	}
	if got, want := d.Error(), "event 10: the log ends at 10 events but the run executed tick at 2008-09-01T00:00:11Z"; got != want {
		t.Fatalf("late-end divergence error %q, want %q", got, want)
	}
}

// The end-to-end promise: record a real scenario run, Verify rebuilds it
// from nothing but the header and replays step-for-step clean; replaying
// under a different seed diverges with an exact event index.
func TestVerifyScenarioRun(t *testing.T) {
	const days = 2
	record := func(seed int64) *Log {
		d, err := scenario.Build("dual-base", scenario.Params{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Scenario: "dual-base", Seed: seed, Days: days})
		if err != nil {
			t.Fatal(err)
		}
		w.Attach(d.Sim)
		if err := d.RunDays(days); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		l, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := record(42)
	if l.Len() == 0 {
		t.Fatal("scenario run recorded no events")
	}
	div, err := Verify(l)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("replay of a faithful recording diverged: %v", div)
	}
	// Lie about the seed: the rebuilt run draws different noise and must
	// part ways with the recording at a definite event.
	lied := *l
	lied.header.Seed = 43
	div, err = Verify(&lied)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("replay under the wrong seed verified clean")
	}
	// Cross-check the divergence against a direct recording of seed 43.
	other := record(43)
	d := Diff(l, other)
	if d == nil {
		t.Fatal("seeds 42 and 43 recorded identical logs")
	}
	if div.Index != d.Index {
		t.Fatalf("replay diverged at event %d, diff at event %d", div.Index, d.Index)
	}
}

func TestRebuildRefusals(t *testing.T) {
	if _, _, err := Rebuild(Header{Scenario: "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario rebuilt")
	}
	_, _, err := Rebuild(Header{Scenario: "dual-base", Hooks: "campaign/x5-sync-lag"})
	if err == nil || !strings.Contains(err.Error(), "hook set") {
		t.Fatalf("hook-driven log rebuilt: err = %v", err)
	}
	// A header whose fleet size the scenario never built (earlier tools
	// recorded -stations without honouring it) is refused, not replayed
	// at the scenario's own size.
	_, _, err = Rebuild(Header{Scenario: "as-deployed-2008", Stations: 5, Days: 1})
	if !errors.Is(err, scenario.ErrStations) || !strings.Contains(err.Error(), `"as-deployed-2008" builds 2 stations, not 5`) {
		t.Fatalf("stations-5 as-deployed header: err = %v", err)
	}
}
