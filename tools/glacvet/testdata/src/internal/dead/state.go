package dead

// meter's unexported fields show the read rule below the exported
// surface: only a read in the package's own non-test code keeps one.
type meter struct {
	count   int   // incremented only: reported
	samples []int // appended to itself only: reported
	total   int   // read by add: not reported
	peak    int   // read only by dead_test.go: reported
}

func (m *meter) add(v int) int {
	m.count++
	m.samples = append(m.samples, v)
	m.total += v
	m.peak = v
	return m.total
}
