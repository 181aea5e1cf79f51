package dead

import "fmt"

// Config shows the config rule: an exported field exists while code
// outside its package reads or writes it.
type Config struct {
	Rate  int // keyed in the nested module's literal: kept
	Step  int // incremented by the nested module: kept
	Depth int // its address is taken by the nested module: kept
	Limit int // set and read only in this package: reported
}

// Plan holds a Config by value.
type Plan struct {
	Config Config // written through by the root's Examples (p.Config.Rate = v): kept
	Name   string // set and read only in this package: reported
}

// Spread is filled by a positional literal in the nested module: neither
// field is reported.
type Spread struct{ Lo, Hi int }

var defaults = Plan{Name: "default", Config: Config{Limit: 4}}

func (c Config) total() int { return c.Rate + c.Step + c.Depth + c.Limit }

func (p Plan) label() string { return p.Name + fmt.Sprint(p.Config.total()) }

func width(s Spread) int { return s.Hi - s.Lo }
