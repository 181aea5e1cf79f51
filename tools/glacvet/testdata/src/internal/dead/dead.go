// Package dead exercises the deadexport check: an exported name under
// internal/ is reported unless the type checker resolves a use of it in
// the module, in a nested module's package or in the root's Examples, an
// interface declares it and a value of its receiver type reaches an
// interface (stringer.go), or a justified allow keeps it. A test's use, or
// a same-spelled name that resolves elsewhere, keeps nothing alive.
package dead

import "fmt"

// Counter is live: Peek's result and the methods' receivers use it.
type Counter struct{ n int }

// Peek is called from dead_test.go only: reported.
func Peek() *Counter { return &Counter{} }

// Orphan is called by nothing: reported.
func Orphan() int { return 1 }

// Reset is a method nothing calls: reported.
func (c *Counter) Reset() { c.n = 0 }

// String satisfies fmt.Stringer, but nothing calls it by name and no
// Counter reaches an interface: reported.
func (c *Counter) String() string { return fmt.Sprint(c.n) }

// Kept is called by nothing but carries a justified allow: no finding.
//
//glacvet:allow deadexport fixture: kept for an out-of-tree caller
func Kept() {}

// Timer and Ticker both have a Stop method.
type (
	Timer  struct{}
	Ticker struct{}
)

// Stop on a Timer is called by nothing; the test's Ticker.Stop call does
// not keep it: reported.
func (*Timer) Stop() {}

// Stop on a Ticker is called by the nested module: not reported.
func (*Ticker) Stop() {}

// Used is called by the nested module: not reported.
func Used() {}

// Spelled is reported: the nested module's Spelled is its own function.
func Spelled() {}

// Documented is called by the root's Examples: not reported.
func Documented() {}
