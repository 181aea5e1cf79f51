package fixture_test

import "fixture/internal/dead"

// The root's Examples are type-checked, so this keeps Documented alive.
func ExampleDocumented() {
	dead.Documented()
	// Output:
}

// A write through Plan's by-value Config writes Plan.Config from outside
// package dead.
func ExamplePlan() {
	var p dead.Plan
	p.Config.Rate = 2
	// Output:
}
