// Package dead exercises the deadexport check: an exported name under
// internal/ that nothing references is reported, unless a test spells
// it, an interface declares it, or a justified allow keeps it.
package dead

import "fmt"

// Counter is live: Peek's result and the methods' receivers use it.
type Counter struct{ n int }

// Peek is called from dead_test.go only, which keeps it live.
func Peek() *Counter { return &Counter{} }

// Orphan is called by nothing: reported.
func Orphan() int { return 1 }

// Reset is a method nothing calls: reported.
func (c *Counter) Reset() { c.n = 0 }

// String satisfies fmt.Stringer and is never called by name: not
// reported, since an interface declares the method.
func (c *Counter) String() string { return fmt.Sprint(c.n) }

// Kept is called by nothing but carries a justified allow: no finding.
//
//glacvet:allow deadexport fixture: kept for an out-of-tree caller
func Kept() {}
