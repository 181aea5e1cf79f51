// Command tool is a nested module: its type-checked uses keep exports
// alive, by object and not by name.
package main

import "fixture/internal/dead"

// Spelled shares a name with dead.Spelled and is not a use of it.
func Spelled() {}

func main() {
	dead.Used()
	new(dead.Ticker).Stop()
	Spelled()
	touch()
	configure()
}

// touch writes every field of the read-rule fixtures from outside package
// dead, with positional literals, so only the read rule speaks on them.
func touch() {
	_ = dead.Gauge{1, 1, 1, 1, nil, 1, 1, 1}
	_ = dead.Pair{1, 2}
	_ = dead.Key{1, 2}
	_ = dead.Printed{"x"}
	_ = dead.Outer{nil, dead.Inner{1}}
	_ = dead.Wrapped{dead.Base{1}}
	_ = dead.Shelf{[]*dead.Item{{"x"}}}
}

// configure sets Config's fields from outside package dead: a keyed
// literal, an increment and an address taken.
func configure() {
	c := dead.Config{Rate: 2}
	c.Step++
	p := &c.Depth
	*p = 3
	_ = dead.Spread{1, 2}
}
