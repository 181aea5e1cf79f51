// Package rescache is the persistent content-addressed result cache
// behind incremental campaigns: cell results are pure functions of
// (plan fingerprint, cell index) — a fact the byte-identity and
// fingerprint-verification tests pin — so once a cell has been simulated
// anywhere, any later campaign over the same plan can reuse it instead of
// re-simulating. DiskCache is the on-disk store a sweep.LocalRunner and
// the distrib worker daemon consult.
//
// Safety is the headline property, in three layers:
//
//   - the key is plan fingerprint + cell index + format version, so a
//     grid change, a drifted binary or an encoding bump can never alias
//     into a stale entry — they look in a different place;
//   - every entry carries a header with its payload's SHA-256 digest and
//     length, verified on every read, so a truncated or bit-flipped file
//     is detected and treated as a miss (and removed), never served;
//   - the decoded result's cell identity is compared against the
//     requested cell, so even a digest-valid entry poisoned with the
//     wrong cell's result is refused.
//
// A miss on any of those checks simply re-simulates — the cache can make
// a campaign faster, never wrong.
package rescache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sweep"
)

// FormatVersion is the entry encoding version, part of every key: bumping
// it (a change to the cell payload encoding or the entry header)
// invalidates every existing entry by construction — old entries live
// under the old version's directory, which new readers never open.
// Version 2 replaced version 1's JSON cell payload with the binary one
// cell.go defines.
const FormatVersion = 2

// entryMagic heads every entry file, followed by the format version, the
// payload digest and the payload length.
const entryMagic = "glacsweb-rescache"

// Stats are the cache's monotonic counters, surfaced in campaign
// manifests and CLI cache-stats lines.
//
//glacvet:wire
type Stats struct {
	// Hits counts Gets served from a verified entry.
	Hits int64 `json:"hits"`
	// Misses counts Gets that found nothing servable: absent, stale,
	// corrupt or identity-mismatched entries all land here.
	Misses int64 `json:"misses"`
	// Stores counts Puts that wrote an entry.
	Stores int64 `json:"stores"`
	// Evictions counts entries removed by the size bound's LRU policy.
	Evictions int64 `json:"evictions"`
}

// Options configures Open.
type Options struct {
	// MaxBytes bounds the total payload+header bytes on disk; when a Put
	// pushes past it, least-recently-used entries are evicted until the
	// store fits (the entry just written survives). <= 0 means unbounded.
	MaxBytes int64
	// Logf, when set, narrates removals of corrupt entries and eviction
	// sweeps. Concurrent Gets and Puts call it from their own goroutines,
	// so it must be safe for concurrent use.
	Logf func(format string, a ...any)
}

// DiskCache is the on-disk content-addressed store: one file per cached
// cell under dir/v<FormatVersion>/<fingerprint>/<index>.cell, written
// atomically (temp file, fsync, rename) and verified on every read. Safe
// for concurrent use within a process; multiple processes may share one
// directory (a worker pool warming one cache) — atomic writes keep every
// file whole, and an entry another process evicted is just a miss here.
type DiskCache struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry // key: "<fingerprint>/<index>"
	total   int64             // bytes on disk across entries
	seq     int64             // LRU clock: higher = more recently used
	stats   Stats
}

type entry struct {
	size int64
	seq  int64
}

// Open opens (creating if needed) the cache rooted at dir and indexes the
// current format version's entries; other versions' directories are left
// untouched (stale by construction, reclaimable by deleting dir).
func Open(dir string, opts Options) (*DiskCache, error) {
	c := &DiskCache{dir: dir, opts: opts, entries: map[string]*entry{}}
	if err := os.MkdirAll(c.versionDir(), 0o755); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	if err := c.index(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *DiskCache) Dir() string { return c.dir }

// Stats returns a snapshot of the counters.
func (c *DiskCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of indexed entries.
func (c *DiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SizeBytes returns the indexed entries' total bytes on disk.
func (c *DiskCache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func (c *DiskCache) logf(format string, a ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, a...)
	}
}

func (c *DiskCache) versionDir() string {
	return filepath.Join(c.dir, fmt.Sprintf("v%d", FormatVersion))
}

func (c *DiskCache) entryPath(fingerprint string, index int) string {
	return filepath.Join(c.versionDir(), fingerprint, strconv.Itoa(index)+".cell")
}

func entryKey(fingerprint string, index int) string {
	return fingerprint + "/" + strconv.Itoa(index)
}

// index scans the version directory into the in-memory LRU index,
// ordering initial recency by file modification time. Entries are trusted
// lazily: verification happens on Get, so a corrupt file costs its reader
// a miss, not everyone an Open failure.
func (c *DiskCache) index() error {
	type found struct {
		key     string
		size    int64
		modUnix int64
	}
	var all []found
	fpDirs, err := os.ReadDir(c.versionDir())
	if err != nil {
		return fmt.Errorf("rescache: scan %s: %w", c.versionDir(), err)
	}
	for _, fd := range fpDirs {
		if !fd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.versionDir(), fd.Name()))
		if err != nil {
			return fmt.Errorf("rescache: scan %s: %w", fd.Name(), err)
		}
		for _, f := range files {
			name, ok := strings.CutSuffix(f.Name(), ".cell")
			if !ok || f.IsDir() {
				continue
			}
			index, err := strconv.Atoi(name)
			if err != nil {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			all = append(all, found{
				key:     entryKey(fd.Name(), index),
				size:    info.Size(),
				modUnix: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].modUnix < all[j].modUnix })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range all {
		c.seq++
		c.entries[f.key] = &entry{size: f.size, seq: c.seq}
		c.total += f.size
	}
	return nil
}

// Get implements sweep.ResultCache. Every returned result has passed the
// full verification chain: header format and version, payload length and
// SHA-256 digest, a clean decode, and cell identity equal to the request.
// A file failing any check is removed (so the slot re-fills with a fresh
// simulation) and reported as a miss. A file on disk that is not yet in
// this process's index — another process sharing the directory stored it
// — is adopted, so a worker pool warms one cache together.
func (c *DiskCache) Get(fingerprint string, cell sweep.Cell) (sweep.CellResult, bool) {
	path := c.entryPath(fingerprint, cell.Index)
	data, err := os.ReadFile(path)
	if err != nil {
		c.miss(fingerprint, cell.Index)
		return sweep.CellResult{}, false
	}
	payload, err := decodeEntry(data)
	if err == nil {
		var cr sweep.CellResult
		if cr, err = decodeCell(payload); err == nil {
			if cr.Cell != cell {
				err = fmt.Errorf("entry holds cell %s, not %s", cr.Cell.Label(), cell.Label())
			} else {
				c.hit(fingerprint, cell.Index, int64(len(data)))
				return cr, true
			}
		}
	}
	// Poisoned, truncated or stale-format entry: drop it so the slot
	// re-fills with a verified fresh result, and report a miss.
	c.logf("rescache: %s: %v — treating as miss and removing the entry", path, err)
	_ = os.Remove(path)
	c.miss(fingerprint, cell.Index)
	return sweep.CellResult{}, false
}

// hit promotes the entry to most-recently-used (adopting it into the
// index if another process wrote it) and counts the hit.
func (c *DiskCache) hit(fingerprint string, index int, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := entryKey(fingerprint, index)
	e, ok := c.entries[key]
	if !ok {
		e = &entry{size: size}
		c.entries[key] = e
		c.total += size
	}
	c.seq++
	e.seq = c.seq
	c.stats.Hits++
}

// miss counts a miss, dropping the index entry when the file was removed
// (corrupt) or found absent.
func (c *DiskCache) miss(fingerprint string, index int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := entryKey(fingerprint, index)
	if e, ok := c.entries[key]; ok {
		c.total -= e.size
		delete(c.entries, key)
	}
	c.stats.Misses++
}

// Put implements sweep.ResultCache: encode, digest, write atomically,
// then evict past the size bound. Best effort — a failed write is logged
// and dropped (the run already has the result), never an error up the
// stack.
func (c *DiskCache) Put(fingerprint string, cr sweep.CellResult) {
	if cr.Err != "" {
		// A failed cell is not a pure function of the plan (a scenario
		// unregistered in this binary, a hook error); never cache it.
		return
	}
	data := encodeEntry(appendCell(nil, cr))
	path := c.entryPath(fingerprint, cr.Cell.Index)
	if err := writeAtomic(path, data); err != nil {
		c.logf("rescache: store cell %d of %s: %v — not cached", cr.Cell.Index, fingerprint, err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := entryKey(fingerprint, cr.Cell.Index)
	if e, ok := c.entries[key]; ok {
		c.total -= e.size
		delete(c.entries, key)
	}
	c.seq++
	c.entries[key] = &entry{size: int64(len(data)), seq: c.seq}
	c.total += int64(len(data))
	c.stats.Stores++
	c.evictLocked(key)
}

// evictLocked removes least-recently-used entries until the store fits
// MaxBytes, sparing keep (the entry just written — evicting it would make
// a store a no-op and the warm run that follows a full re-simulation).
func (c *DiskCache) evictLocked(keep string) {
	if c.opts.MaxBytes <= 0 {
		return
	}
	for c.total > c.opts.MaxBytes && len(c.entries) > 1 {
		oldestKey, oldest := "", (*entry)(nil)
		for key, e := range c.entries {
			if key == keep {
				continue
			}
			if oldest == nil || e.seq < oldest.seq {
				oldestKey, oldest = key, e
			}
		}
		if oldest == nil {
			return
		}
		fingerprint, indexStr, _ := strings.Cut(oldestKey, "/")
		index, _ := strconv.Atoi(indexStr)
		_ = os.Remove(c.entryPath(fingerprint, index))
		c.total -= oldest.size
		delete(c.entries, oldestKey)
		c.stats.Evictions++
		c.logf("rescache: evicted cell %s of %s (LRU, %d bytes over bound)",
			indexStr, fingerprint, c.total-c.opts.MaxBytes)
	}
}

// encodeEntry frames a payload with the verification header:
//
//	glacsweb-rescache <version> sha256=<hex digest> bytes=<len>\n<payload>
func encodeEntry(payload []byte) []byte {
	return append(entryHeader(payload), payload...)
}

// entryHeader is the one header line encodeEntry writes for payload.
func entryHeader(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return fmt.Appendf(nil, "%s %d sha256=%x bytes=%d\n", entryMagic, FormatVersion, sum[:], len(payload))
}

// decodeEntry verifies an entry's frame and returns its payload. The
// header line must be byte for byte the one encodeEntry writes for the
// payload that follows it, so a drifted version, a truncated or corrupted
// payload and a header no encoder writes (a signed or zero-padded number,
// doubled or other white space) all fail, and the length field is never
// parsed. The read path turns any failure into a miss.
func decodeEntry(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("entry has no header line")
	}
	header, payload := data[:nl+1], data[nl+1:]
	if want := entryHeader(payload); !bytes.Equal(header, want) {
		return nil, fmt.Errorf("entry header %q is not %q, the header of its %d-byte payload (drifted format, truncated or corrupted)",
			header, want, len(payload))
	}
	return payload, nil
}

// writeAtomic lands data at path whole or not at all: temp file in the
// final directory, synced content, then rename — a crash mid-write leaves
// a .tmp file Get never reads, not a truncated entry it must detect.
func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}
