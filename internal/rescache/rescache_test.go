package rescache

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// testGrid is a small real grid: 2 seeds x 1 scenario, short horizon.
func testGrid() sweep.Grid {
	return sweep.Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1, 2}, Days: 2}
}

// runWith executes testGrid through a LocalRunner backed by c (nil = no
// cache) and returns the summary's canonical JSON bytes — the byte-level
// artifact identity the cache must preserve.
func runWith(t *testing.T, c sweep.ResultCache) []byte {
	t.Helper()
	artifact, _ := runCounted(t, c)
	return artifact
}

// runCounted is runWith that also reports how many cells were simulated,
// counted by a Grid.Record hook that sees every built deployment.
func runCounted(t *testing.T, c sweep.ResultCache) ([]byte, int64) {
	t.Helper()
	var simulated atomic.Int64
	g := testGrid()
	g.Record = func(sweep.Cell, *deploy.Deployment) (func() error, error) {
		simulated.Add(1)
		return nil, nil
	}
	sum, err := sweep.RunShardWith(g, sweep.LocalRunner{Workers: 2, Cache: c}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), simulated.Load()
}

func openCache(t *testing.T, dir string, opts Options) *DiskCache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// logLines records Logf format strings. Gets fan out over the pool, so
// the cache narrates from several goroutines at once.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, _ ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, format)
}

// versionField is the magic and version that open every current-format
// entry's header.
var versionField = fmt.Sprintf("%s %d ", entryMagic, FormatVersion)

// entryFiles returns the current-format entry files under dir, sorted.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion), "*", "*.cell"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestWarmRunIsByteIdenticalAndSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	cold := runWith(t, nil)

	c := openCache(t, dir, Options{})
	first := runWith(t, c)
	if !bytes.Equal(cold, first) {
		t.Fatal("cache-populating run diverged from the uncached run")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("cold stats = %+v, want 0 hits, 2 misses, 2 stores", st)
	}

	warm, simulated := runCounted(t, c)
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm run's artifact differs from the cold run's")
	}
	st = c.Stats()
	// 2 more Gets, all hits: the warm run simulated zero cells.
	if st.Hits != 2 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("warm stats = %+v, want 2 hits and no new misses/stores", st)
	}
	if simulated != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", simulated)
	}
}

func TestSecondProcessSharesTheCache(t *testing.T) {
	dir := t.TempDir()
	cold := runWith(t, openCache(t, dir, Options{}))

	// A fresh Open over the same directory — a second process — serves
	// the first one's entries.
	c2 := openCache(t, dir, Options{})
	if c2.Len() != 2 {
		t.Fatalf("reopened cache indexed %d entries, want 2", c2.Len())
	}
	warm := runWith(t, c2)
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm run via reopened cache diverged")
	}
	if st := c2.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("reopened stats = %+v, want 2 hits, 0 misses", st)
	}
}

func TestPoisonedEntryIsAMissAndIsResimulated(t *testing.T) {
	dir := t.TempDir()
	cold := runWith(t, openCache(t, dir, Options{}))

	// Flip one payload byte in every entry: digests no longer match.
	for _, path := range entryFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var log logLines
	c := openCache(t, dir, Options{Logf: log.logf})
	warm := runWith(t, c)
	if !bytes.Equal(cold, warm) {
		t.Fatal("run over a poisoned cache diverged from the clean run")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("poisoned-cache stats = %+v, want every Get a miss and every cell re-stored", st)
	}
	if len(log.lines) == 0 {
		t.Fatal("poisoned entries should be narrated via Logf")
	}
	// And the poison is gone: the re-stored entries now verify.
	if st := openCache(t, dir, Options{}); st.Len() != 2 {
		t.Fatalf("re-stored cache indexed %d entries, want 2", st.Len())
	}
}

func TestTruncatedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	runWith(t, openCache(t, dir, Options{}))

	for _, path := range entryFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := openCache(t, dir, Options{})
	runWith(t, c)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("truncated-cache stats = %+v, want all misses", st)
	}
}

func TestFingerprintDriftIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir, Options{})
	runWith(t, c)

	// A different grid — different fingerprint — shares no entries, even
	// though its cells carry the same indices.
	g := sweep.Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1, 2}, Days: 3}
	if _, err := sweep.RunShardWith(g, sweep.LocalRunner{Workers: 2, Cache: c}, 0, 1); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 4 || st.Stores != 4 {
		t.Fatalf("stats after drifted grid = %+v, want no cross-fingerprint hits", st)
	}
}

func TestWrongCellEntryIsRefused(t *testing.T) {
	dir := t.TempDir()
	runWith(t, openCache(t, dir, Options{}))

	// Graft cell 0's (digest-valid!) entry into cell 1's slot: the frame
	// verifies, but the decoded identity is wrong.
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("got %d entries, want 2", len(files))
	}
	data, err := os.ReadFile(filepath.Join(filepath.Dir(files[0]), "0.cell"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(files[0]), "1.cell"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	var log logLines
	c := openCache(t, dir, Options{Logf: log.logf})
	runWith(t, c)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("grafted-entry stats = %+v, want the grafted slot refused and refilled", st)
	}
	if len(log.lines) != 1 || !strings.Contains(log.lines[0], "miss") {
		t.Fatalf("refusal should be narrated once, got %q", log.lines)
	}
}

// An entry whose payload runs on past the cell it encodes (written by
// another encoder) cannot be represented faithfully, so even a
// digest-valid frame of it is a miss, not a hit on its readable prefix.
func TestTrailingBytesEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	cold := runWith(t, openCache(t, dir, Options{}))

	for _, path := range entryFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := decodeEntry(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeCell(payload); err != nil {
			t.Fatal(err)
		}
		widened := append(payload, 0)
		if err := os.WriteFile(path, encodeEntry(widened), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := openCache(t, dir, Options{})
	if warm := runWith(t, c); !bytes.Equal(cold, warm) {
		t.Fatal("run over widened entries diverged from the clean run")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("widened-entry stats = %+v, want every Get a miss and every cell re-stored", st)
	}
}

func TestFormatVersionDriftIsAMiss(t *testing.T) {
	dir := t.TempDir()
	runWith(t, openCache(t, dir, Options{}))

	// Rewrite each entry's header to claim a future format version.
	for _, path := range entryFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		drifted := bytes.Replace(data, []byte(versionField), []byte(entryMagic+" 99 "), 1)
		if bytes.Equal(drifted, data) {
			t.Fatalf("%q is not in entry %q", versionField, data)
		}
		if err := os.WriteFile(path, drifted, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := openCache(t, dir, Options{})
	runWith(t, c)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("format-drift stats = %+v, want all misses", st)
	}
}

func TestErroredCellsAreNeverCached(t *testing.T) {
	c := openCache(t, t.TempDir(), Options{})
	c.Put("deadbeefdeadbeef", sweep.CellResult{
		Cell: sweep.Cell{Index: 0, Scenario: "dual-base", Seed: 1, Days: 2},
		Err:  "hook exploded",
	})
	if st := c.Stats(); st.Stores != 0 {
		t.Fatalf("stores = %d, want errored cell dropped", st.Stores)
	}
	if c.Len() != 0 {
		t.Fatal("errored cell landed on disk")
	}
}

// A store whose final rename fails (here a directory squats on the entry
// path) is dropped whole: nothing counted, nothing indexed, no temp file
// left beside the entry, and the cell stays a miss.
func TestFailedRenameStoresNothing(t *testing.T) {
	dir := t.TempDir()
	var logs logLines
	c := openCache(t, dir, Options{Logf: logs.logf})
	const fp = "deadbeefdeadbeef"
	cell := sweep.Cell{Index: 0, Scenario: "dual-base", Seed: 1, Days: 2}
	if err := os.MkdirAll(c.entryPath(fp, cell.Index), 0o755); err != nil {
		t.Fatal(err)
	}
	c.Put(fp, sweep.CellResult{Cell: cell, Metrics: []sweep.Metric{{Name: "runs", Value: 4}}})
	if st := c.Stats(); st.Stores != 0 {
		t.Fatalf("stores = %d, want the failed rename dropped", st.Stores)
	}
	if c.Len() != 0 {
		t.Fatalf("index holds %d entries after a failed store, want 0", c.Len())
	}
	tmps, err := filepath.Glob(filepath.Join(filepath.Dir(c.entryPath(fp, cell.Index)), "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("failed store left temp files %v", tmps)
	}
	if len(logs.lines) != 1 || !strings.Contains(logs.lines[0], "not cached") {
		t.Fatalf("log = %q, want one not-cached line", logs.lines)
	}
	if _, ok := c.Get(fp, cell); ok {
		t.Fatal("Get hit a cell whose store failed")
	}
}

func TestLRUEvictionBoundsTheStore(t *testing.T) {
	c := openCache(t, t.TempDir(), Options{})
	mk := func(index int, seed int64) sweep.CellResult {
		return sweep.CellResult{Cell: sweep.Cell{Index: index, Scenario: "dual-base", Seed: seed, Days: 2},
			Metrics: []sweep.Metric{{Name: "runs", Value: float64(index)}}}
	}
	// Learn the per-entry footprint from the entries themselves, then
	// bound the store to ~2 of them and keep storing.
	c.Put("deadbeefdeadbeef", mk(0, 0))
	c.Put("deadbeefdeadbeef", mk(1, 1))
	size := c.SizeBytes() / 2
	bound := 2*size + size/2
	c.opts.MaxBytes = bound
	c.Put("deadbeefdeadbeef", mk(2, 2))
	c.Put("deadbeefdeadbeef", mk(3, 3))
	if c.SizeBytes() > bound {
		t.Fatalf("store is %d bytes, bound is %d", c.SizeBytes(), bound)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a %d-byte bound", st, bound)
	}
	// The newest entry always survives its own Put's eviction sweep.
	if _, ok := c.Get("deadbeefdeadbeef", mk(3, 3).Cell); !ok {
		t.Fatal("most recent entry was evicted")
	}
	// The oldest is gone.
	if _, ok := c.Get("deadbeefdeadbeef", mk(0, 0).Cell); ok {
		t.Fatal("least recently used entry survived the bound")
	}
}

func TestEvictionFollowsRecencyOfUse(t *testing.T) {
	c := openCache(t, t.TempDir(), Options{})
	mk := func(index int) sweep.CellResult {
		return sweep.CellResult{Cell: sweep.Cell{Index: index, Scenario: "dual-base", Seed: 1, Days: 2}}
	}
	c.Put("deadbeefdeadbeef", mk(0))
	c.Put("deadbeefdeadbeef", mk(1))
	perEntry := c.SizeBytes() / 2

	// Touch entry 0 so entry 1 is now least recently used, then bound the
	// store to two entries via a third Put.
	if _, ok := c.Get("deadbeefdeadbeef", mk(0).Cell); !ok {
		t.Fatal("entry 0 missing")
	}
	c.opts.MaxBytes = 2*perEntry + perEntry/2
	c.Put("deadbeefdeadbeef", mk(2))
	if _, ok := c.Get("deadbeefdeadbeef", mk(1).Cell); ok {
		t.Fatal("LRU entry 1 survived; recency of use is not driving eviction")
	}
	if _, ok := c.Get("deadbeefdeadbeef", mk(0).Cell); !ok {
		t.Fatal("recently used entry 0 was evicted ahead of entry 1")
	}
}

func TestEntryFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"index":0}` + "\n")
	got, err := decodeEntry(encodeEntry(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("decoded payload %q, want %q", got, payload)
	}

	bad := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no header", []byte("junk")},
		{"wrong magic", []byte("other-store 1 sha256=ab bytes=2\nhi")},
		{"short payload", append(encodeEntry(payload)[:20], '\n')},
	}
	for _, tc := range bad {
		if _, err := decodeEntry(tc.data); err == nil {
			t.Errorf("%s: decodeEntry accepted a bad frame", tc.name)
		}
	}
}

// An entry is served only under the exact header encodeEntry writes for
// its payload. Each row rewrites a valid entry's header into one that
// names the same version, digest and length but that no encoder writes;
// the entry must be refused, counted a miss and removed.
func TestNonCanonicalHeaderIsAMiss(t *testing.T) {
	cell := sweep.Cell{Index: 0, Scenario: "dual-base", Seed: 1, Days: 2}
	for _, tc := range []struct {
		name     string
		from, to string // first occurrence replaced in the header line
	}{
		{"signed version", versionField, fmt.Sprintf("%s +%d ", entryMagic, FormatVersion)},
		{"zero-padded version", versionField, fmt.Sprintf("%s 0%d ", entryMagic, FormatVersion)},
		{"signed length", " bytes=", " bytes=+"},
		{"zero-padded length", " bytes=", " bytes=0"},
		{"doubled space", entryMagic + " ", entryMagic + "  "},
		{"tab separator", " sha256=", "\tsha256="},
		{"carriage return", "\n", "\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := openCache(t, t.TempDir(), Options{})
			c.Put("deadbeefdeadbeef", sweep.CellResult{Cell: cell, Metrics: []sweep.Metric{{Name: "runs", Value: 3}}})
			files := entryFiles(t, c.Dir())
			if len(files) != 1 {
				t.Fatalf("got %d entries, want 1", len(files))
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("deadbeefdeadbeef", cell); !ok {
				t.Fatal("the canonical entry was refused")
			}
			nl := bytes.IndexByte(data, '\n') + 1
			header := strings.Replace(string(data[:nl]), tc.from, tc.to, 1)
			if header == string(data[:nl]) {
				t.Fatalf("%q is not in header %q", tc.from, data[:nl])
			}
			mutated := append([]byte(header), data[nl:]...)
			if _, err := decodeEntry(mutated); err == nil {
				t.Fatalf("decodeEntry accepted header %q", header)
			}
			if err := os.WriteFile(files[0], mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("deadbeefdeadbeef", cell); ok {
				t.Fatalf("Get served an entry under header %q", header)
			}
			if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
				t.Fatalf("refused entry was not removed (stat: %v)", err)
			}
			if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want the canonical hit and one miss", st)
			}
		})
	}
}

// decodeEntry never sizes anything by the header's length field: a frame
// promising 2^63 bytes costs what its short header costs.
func TestHostileLengthDrivesNoAllocation(t *testing.T) {
	payload := []byte(`{"index":0}` + "\n")
	frame := encodeEntry(payload)
	hostile := bytes.Replace(frame, []byte(" bytes=12\n"), []byte(" bytes=9223372036854775807\n"), 1)
	if bytes.Equal(frame, hostile) {
		t.Fatalf("length field not found in %q", frame)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100 {
		if _, err := decodeEntry(hostile); err == nil {
			t.Fatal("decodeEntry accepted a frame promising 2^63 bytes")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 4<<10 {
		t.Fatalf("decodeEntry allocated %d bytes per hostile frame, want under 4 KiB", per)
	}
}

// cellEntry is a real cache entry: the payload of a cell with a
// collected series and a NaN metric, framed by encodeEntry.
func cellEntry() []byte {
	ser := trace.NewSeries("base-volts", "V")
	t0 := time.Date(2008, 8, 1, 0, 0, 0, 0, time.UTC)
	ser.Add(t0, 12.5)
	ser.Add(t0.Add(time.Hour), math.NaN())
	return encodeEntry(appendCell(nil, sweep.CellResult{
		Cell:    sweep.Cell{Index: 3, Scenario: "dual-base", Seed: 7, Stations: 2, Override: "ov", Days: 2},
		Metrics: []sweep.Metric{{Name: "runs", Value: 4}, {Name: "nan", Value: math.NaN()}},
		Series:  []*trace.Series{ser},
	}))
}

// FuzzDecodeEntry feeds arbitrary bytes to the entry frame decoder and,
// through it, to the cell decoder. Neither may panic. A frame is accepted
// only if encodeEntry would have written exactly those bytes, and a cell
// payload only if appendCell would have: re-encoding an accepted cell
// gives its payload back byte for byte, so an entry read back and
// re-stored cannot drift. A mutated payload almost never carries a valid
// digest, so the input is also decoded as a bare payload, which lets the
// fuzzer reach the cell decoder directly.
func FuzzDecodeEntry(f *testing.F) {
	entry := cellEntry()
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(bytes.Replace(entry, []byte(versionField), []byte(fmt.Sprintf("%s +%d ", entryMagic, FormatVersion)), 1))
	payload, err := decodeEntry(entry)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		cellFixedPoint(t, data)
		payload, err := decodeEntry(data)
		if err != nil {
			return
		}
		if !bytes.Equal(data, encodeEntry(payload)) {
			t.Fatalf("accepted a frame encodeEntry does not write:\n%q", data)
		}
		cellFixedPoint(t, payload)
	})
}

// cellFixedPoint fails t if decodeCell accepts payload but appendCell
// does not give it back byte for byte.
func cellFixedPoint(t *testing.T, payload []byte) {
	t.Helper()
	cr, err := decodeCell(payload)
	if err != nil {
		return
	}
	if again := appendCell(nil, cr); !bytes.Equal(again, payload) {
		t.Fatalf("re-encoding is not a fixed point:\n--- payload\n%x\n--- re-encoded\n%x", payload, again)
	}
}
