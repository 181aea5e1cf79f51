// Package storage models the station's on-board storage: the 4 GB compact
// flash card that buffers data between communication windows, and the
// upload spool that survives failed GPRS sessions ("if for any reason the
// communications fail the data is stored locally until it can be sent
// onwards").
package storage

import (
	"errors"
	"fmt"
	"time"
)

// ErrNotFound is returned when a file does not exist.
var ErrNotFound = errors.New("storage: file not found")

// StoredFile is one file on the CF card. Payload bytes are modeled by size;
// Data optionally carries real content (used by the update mechanism).
type StoredFile struct {
	// Name is the file path on the card.
	Name string
	// Size is the file size in bytes.
	Size int64
	// Data optionally holds real content; len(Data) need not equal Size
	// for bulk sensor files where only volume matters.
	Data []byte
	// Created is when the file was written.
	Created time.Time
}

// CFCard is a simulated compact-flash card.
type CFCard struct {
	capacity int64
	files    map[string]*StoredFile
	used     int64
}

// NewCFCard returns a card with the given capacity (the deployment used
// 4 GB cards).
func NewCFCard(capacity int64) *CFCard {
	if capacity <= 0 {
		panic(fmt.Sprintf("storage: non-positive CF capacity %d", capacity))
	}
	return &CFCard{capacity: capacity, files: make(map[string]*StoredFile)}
}

// Write stores a file, replacing any previous version. It fails if the card
// would overflow.
func (c *CFCard) Write(name string, size int64, data []byte, now time.Time) error {
	if size < 0 {
		return fmt.Errorf("storage: negative size for %q", name)
	}
	var old int64
	if f, ok := c.files[name]; ok {
		old = f.Size
	}
	if c.used-old+size > c.capacity {
		return fmt.Errorf("storage: card full writing %q (%d used of %d)", name, c.used, c.capacity)
	}
	c.used += size - old
	c.files[name] = &StoredFile{Name: name, Size: size, Data: append([]byte(nil), data...), Created: now}
	return nil
}

// Read returns a file's metadata and content.
func (c *CFCard) Read(name string) (StoredFile, error) {
	f, ok := c.files[name]
	if !ok {
		return StoredFile{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	out := *f
	out.Data = append([]byte(nil), f.Data...)
	return out, nil
}

// Spool is the persistent upload queue: everything waiting to go to
// Southampton. Items are kept in arrival order and only removed once the
// upload is confirmed.
type Spool struct {
	items  []Item
	nextID uint64
}

// ItemKind classifies spooled data.
type ItemKind int

// Spool item kinds. Starting at 1 so the zero value is invalid.
const (
	KindProbeData ItemKind = iota + 1
	KindDGPSFile
	KindHousekeeping
	KindLog
	KindStateReport
)

func (k ItemKind) String() string {
	switch k {
	case KindProbeData:
		return "probe-data"
	case KindDGPSFile:
		return "dgps-file"
	case KindHousekeeping:
		return "housekeeping"
	case KindLog:
		return "log"
	case KindStateReport:
		return "state-report"
	default:
		return "unknown"
	}
}

// Item is one spooled unit of upload.
type Item struct {
	// ID is assigned by the spool.
	ID uint64
	// Kind classifies the payload.
	Kind ItemKind
	// Name describes the payload (e.g. dGPS file name).
	Name string
	// Bytes is the payload size.
	Bytes int64
	// Created is when the item was spooled.
	Created time.Time
}

// NewSpool returns an empty spool.
func NewSpool() *Spool { return &Spool{} }

// Add spools an item and returns its ID.
func (s *Spool) Add(kind ItemKind, name string, bytes int64, now time.Time) uint64 {
	s.nextID++
	s.items = append(s.items, Item{ID: s.nextID, Kind: kind, Name: name, Bytes: bytes, Created: now})
	return s.nextID
}

// Len returns the number of queued items.
func (s *Spool) Len() int { return len(s.items) }

// Peek returns the oldest item without removing it.
func (s *Spool) Peek() (Item, bool) {
	if len(s.items) == 0 {
		return Item{}, false
	}
	return s.items[0], true
}

// Items returns a copy of the queue, oldest first.
func (s *Spool) Items() []Item {
	out := make([]Item, len(s.items))
	copy(out, s.items)
	return out
}

// MarkSent removes the item with the given ID after a confirmed upload.
func (s *Spool) MarkSent(id uint64) error {
	for i, it := range s.items {
		if it.ID == id {
			s.items = append(s.items[:i], s.items[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: spool item %d", ErrNotFound, id)
}
