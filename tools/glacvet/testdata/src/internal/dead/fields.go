package dead

import "fmt"

// Every type in this file is also written from the nested module
// (tool/main.go's touch), so the config rule stays quiet here and only
// the read rule speaks.

// Gauge's fields cover the write positions: only a read keeps a field.
type Gauge struct {
	Set     int   // assigned only: reported
	Bumped  int   // op-assigned only: reported
	Counted int   // incremented only: reported
	Keyed   int   // a composite-literal key only: reported
	Log     []int // appended to itself only, a self-append write: reported
	Shown   int   // read below: not reported
	Tested  int   // read only by dead_test.go: reported

	// Justified is never read, but a justified allow keeps it.
	//
	//glacvet:allow deadexport fixture: read by an out-of-tree decoder
	Justified int
}

func fill(g *Gauge, v int) int {
	*g = Gauge{Keyed: v}
	g.Set = v
	g.Bumped += v
	g.Counted++
	g.Log = append(g.Log, v)
	return g.Shown
}

// Pair is compared with ==, which reads every field: not reported.
type Pair struct{ Left, Right int }

func same(a, b Pair) bool { return a == b }

// Key is a map key, which reads every field: not reported.
type Key struct{ Site, Day int }

var seen = map[Key]bool{}

// Printed goes to fmt as an interface, which reads every field by
// reflection: not reported.
type Printed struct{ Text string }

func show(p Printed) string { return fmt.Sprint(p) }

// Shelf goes to fmt too, and reflection follows its slice to every Item:
// neither field is reported.
type Shelf struct{ Items []*Item }

// Item is reached only through Shelf's slice of pointers.
type Item struct{ Label string }

func list(s Shelf) string { return fmt.Sprint(s) }

// Outer reaches one Inner through a pointer and holds another by value.
type Outer struct {
	Ptr *Inner // written through, which reads the pointer: not reported
	Box Inner  // written into, which writes the field: reported
}

// Inner's field is only assigned: reported.
type Inner struct{ Level int }

func set(o *Outer) {
	o.Ptr.Level = 1
	o.Box.Level = 2
}

// Record is encoded, and encoding/json reads its fields: not reported.
//
//glacvet:wire
type Record struct {
	Payload int `json:"payload"`
}

func record(v int) Record { return Record{Payload: v} }

// Wrapped embeds Base, and a promoted selection passes through the
// embedded field, which reads it: neither field is reported.
type Wrapped struct{ Base }

// Base holds the promoted field.
type Base struct{ Depth int }

func depth(w Wrapped) int { return w.Depth }
