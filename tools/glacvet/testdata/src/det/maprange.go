// Map-iteration cases: collecting without a sort, writing output,
// non-commutative folds and func-value calls are findings; sorted
// collects, commutative folds and declared calls are not.
package det

import (
	"fmt"
	"sort"
)

// Names collects keys without sorting — a maprange finding.
func Names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedNames collects then sorts — the sanctioned idiom, no finding.
func SortedNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump writes output mid-iteration — a maprange finding.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Total folds floats in iteration order — a maprange finding.
func Total(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// Join concatenates strings in iteration order — a maprange finding.
func Join(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}

// Count folds an integer counter — commutative, no finding.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Rail is a switched rail with subscribers to its power changes.
type Rail struct {
	on     bool
	notify func(on bool)
	subs   []func(on bool)
}

// DropAll tells subscribers about power loss in map order — three
// maprange findings: a func-typed loop variable, a field and an element.
func DropAll(rails map[string]*Rail) {
	for _, r := range rails {
		r.on = false
		for _, fn := range r.subs {
			fn(false)
		}
		r.notify(false)
		r.subs[0](false)
	}
}

// Dispatch calls handlers held as map values — a maprange finding.
func Dispatch(handlers map[string]func()) {
	for _, h := range handlers {
		h()
	}
}

// Labels formats through a declared function, a method and a
// conversion, then sorts — no finding.
func Labels(rails map[string]*Rail) []string {
	out := make([]string, 0, len(rails))
	for name, r := range rails {
		out = append(out, fmt.Sprint(name, r.state(), float64(len(r.subs))))
	}
	sort.Strings(out)
	return out
}

func (r *Rail) state() bool { return r.on }
