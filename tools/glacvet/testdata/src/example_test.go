package fixture_test

import "fixture/internal/dead"

// The root's Examples are type-checked, so this keeps Documented alive.
func ExampleDocumented() {
	dead.Documented()
	// Output:
}
