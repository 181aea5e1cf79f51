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
}
