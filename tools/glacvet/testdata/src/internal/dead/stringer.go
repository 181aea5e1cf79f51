package dead

import "fmt"

// Each type below has a String method nothing calls by name. An
// interface (fmt.Stringer) declares the method, so it stays exactly when
// a value of the type reaches an interface in non-test code.

// Silent never reaches an interface: its String is reported.
type Silent struct{ n int }

func (s Silent) String() string { return fmt.Sprint(s.n) }

// Named has its String called by name: kept.
type Named struct{}

func (Named) String() string { return "named" }

// Param is passed to an fmt.Stringer parameter: kept.
type Param struct{}

func (Param) String() string { return "param" }

// Logged is passed to fmt's ...any parameter, inside a slice: kept.
type Logged struct{}

func (Logged) String() string { return "logged" }

// Assigned is assigned to an fmt.Stringer variable: kept.
type Assigned struct{}

func (Assigned) String() string { return "assigned" }

// Declared initialises an fmt.Stringer variable: kept.
type Declared struct{}

func (Declared) String() string { return "declared" }

// Returned is returned as an fmt.Stringer: kept.
type Returned struct{}

func (*Returned) String() string { return "returned" }

// Fault is returned as an error: its Error is kept.
type Fault struct{}

func (Fault) Error() string { return "fault" }

// Listed is an element of an []fmt.Stringer literal: kept.
type Listed struct{}

func (Listed) String() string { return "listed" }

// Keyed, Positional and Mapped fill interface slots of a struct literal
// (keyed and positional) and a map literal: all kept.
type (
	Keyed      struct{}
	Positional struct{}
	Mapped     struct{}
)

func (Keyed) String() string      { return "keyed" }
func (Positional) String() string { return "positional" }
func (Mapped) String() string     { return "mapped" }

type slot struct{ s fmt.Stringer }

// Converted is converted to any: kept.
type Converted struct{}

func (Converted) String() string { return "converted" }

// Held is reached through a struct field of a printed value: kept.
type Held struct{}

func (Held) String() string { return "held" }

type holder struct{ h Held }

func describe(s fmt.Stringer) string { return s.String() }

func stringers() []string {
	var a fmt.Stringer
	a = Assigned{}
	var d fmt.Stringer = Declared{}
	list := []fmt.Stringer{Listed{}, a, d, slot{s: Keyed{}}.s, slot{Positional{}}.s}
	list = append(list, map[string]fmt.Stringer{"m": Mapped{}}["m"])
	out := []string{Named{}.String(), describe(Param{}), fmt.Sprint([]Logged{{}}), fmt.Sprint(holder{})}
	for _, s := range list {
		out = append(out, s.String())
	}
	if v, ok := any(Converted{}).(fmt.Stringer); ok {
		out = append(out, v.String())
	}
	return append(out, returned().String(), fault().Error())
}

func returned() fmt.Stringer { return &Returned{} }

func fault() error { return Fault{} }
