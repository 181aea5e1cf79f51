// Package storage models the station's upload spool, which survives
// failed GPRS sessions ("if for any reason the communications fail the
// data is stored locally until it can be sent onwards").
package storage

import (
	"errors"
	"fmt"
)

// ErrNotFound is returned when a spool item does not exist.
var ErrNotFound = errors.New("storage: not found")

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
)

// Item is one spooled unit of upload.
type Item struct {
	// ID is assigned by the spool.
	ID uint64
	// Kind classifies the payload.
	Kind ItemKind
	// Bytes is the payload size.
	Bytes int64
}

// NewSpool returns an empty spool.
func NewSpool() *Spool { return &Spool{} }

// Add spools an item and returns its ID.
func (s *Spool) Add(kind ItemKind, bytes int64) uint64 {
	s.nextID++
	s.items = append(s.items, Item{ID: s.nextID, Kind: kind, Bytes: bytes})
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
