package det

// A constructed source is still a stream threaded through call order, so
// this import is a globalrand finding too.
import "math/rand/v2"

// Stream builds an independent source.
func Stream(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0))
}
