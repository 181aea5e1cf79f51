package storage

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2009, 9, 1, 12, 0, 0, 0, time.UTC)

func TestCFWriteRead(t *testing.T) {
	c := NewCFCard(1 << 20)
	if err := c.Write("a.dat", 1000, []byte("hello"), t0); err != nil {
		t.Fatal(err)
	}
	f, err := c.Read("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size != 1000 || string(f.Data) != "hello" {
		t.Fatalf("read %+v", f)
	}
	if c.used != 1000 {
		t.Fatalf("used %d", c.used)
	}
	if _, err := c.Read("b.dat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestCFOverwriteAdjustsUsage(t *testing.T) {
	c := NewCFCard(1 << 20)
	if err := c.Write("f", 500, nil, t0); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("f", 200, nil, t0); err != nil {
		t.Fatal(err)
	}
	if c.used != 200 {
		t.Fatalf("used %d after overwrite, want 200", c.used)
	}
}

func TestCFFullRejectsWrite(t *testing.T) {
	c := NewCFCard(1000)
	if err := c.Write("a", 900, nil, t0); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("b", 200, nil, t0); err == nil {
		t.Fatal("overflow write accepted")
	}
	// Replacing the large file with a smaller one must work.
	if err := c.Write("a", 100, nil, t0); err != nil {
		t.Fatal(err)
	}
}

func TestSpoolFIFO(t *testing.T) {
	s := NewSpool()
	id1 := s.Add(KindDGPSFile, "r1", 165*1024, t0)
	id2 := s.Add(KindProbeData, "p21", 64*100, t0.Add(time.Minute))
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
	s.Add(KindLog, "log", 100, t0)
	s.Add(KindLog, "log2", 50, t0.Add(time.Hour))
	var pending int64
	for _, it := range s.Items() {
		pending += it.Bytes
	}
	if pending != 150 {
		t.Fatalf("pending %d", pending)
	}
	if it, _ := s.Peek(); t0.Add(2*time.Hour).Sub(it.Created) != 2*time.Hour {
		t.Fatalf("oldest item created %v, want %v", it.Created, t0)
	}
}

func TestItemKindStrings(t *testing.T) {
	kinds := []ItemKind{KindProbeData, KindDGPSFile, KindHousekeeping, KindLog, KindStateReport}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if ItemKind(0).String() != "unknown" {
		t.Fatal("zero ItemKind should be invalid")
	}
}

// Property: used bytes always equals the sum of live file sizes, under
// new files and overwrites.
func TestPropertyUsageConsistent(t *testing.T) {
	f := func(ops []struct {
		Name byte
		Size uint16
	}) bool {
		c := NewCFCard(1 << 30)
		for _, op := range ops {
			_ = c.Write(string(rune('a'+op.Name%8)), int64(op.Size), nil, t0)
		}
		var sum int64
		for n := range c.files {
			f, err := c.Read(n)
			if err != nil {
				return false
			}
			sum += f.Size
		}
		return sum == c.used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: spool FIFO order is preserved under arbitrary add/send
// interleavings.
func TestPropertySpoolOrdered(t *testing.T) {
	f := func(adds uint8) bool {
		s := NewSpool()
		for i := 0; i < int(adds%50); i++ {
			s.Add(KindLog, "x", int64(i), t0)
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
