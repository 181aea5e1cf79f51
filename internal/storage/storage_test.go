package storage

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSpoolFIFO(t *testing.T) {
	s := NewSpool()
	id1 := s.Add(KindDGPSFile, 165*1024)
	id2 := s.Add(KindProbeData, 64*100)
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	it, ok := s.Peek()
	if !ok || it.ID != id1 {
		t.Fatalf("peek %+v", it)
	}
	if err := s.MarkSent(id1); err != nil {
		t.Fatal(err)
	}
	it, _ = s.Peek()
	if it.ID != id2 {
		t.Fatalf("peek after send %+v", it)
	}
}

func TestSpoolMarkSentUnknown(t *testing.T) {
	s := NewSpool()
	if err := s.MarkSent(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSpoolPendingBytesAndAge(t *testing.T) {
	s := NewSpool()
	s.Add(KindLog, 100)
	s.Add(KindLog, 50)
	var pending int64
	for _, it := range s.Items() {
		pending += it.Bytes
	}
	if pending != 150 {
		t.Fatalf("pending %d", pending)
	}
	if it, _ := s.Peek(); it.Bytes != 100 {
		t.Fatalf("oldest item %+v, want the first added (100 B)", it)
	}
}

// Property: spool FIFO order is preserved under arbitrary add/send
// interleavings.
func TestPropertySpoolOrdered(t *testing.T) {
	f := func(adds uint8) bool {
		s := NewSpool()
		for i := 0; i < int(adds%50); i++ {
			s.Add(KindLog, int64(i))
		}
		items := s.Items()
		for i := 1; i < len(items); i++ {
			if items[i].ID <= items[i-1].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
