package simenv

import (
	"encoding/binary"
	"hash/fnv"
)

// HashNoise returns a deterministic uniform value in [0, 1) keyed on
// (seed, tag, k). It is the only source of randomness in the models (glacvet
// rejects any math/rand import). Unlike a stream, whose draws depend on how
// many came before, hash noise is a pure function: adding an unrelated
// stochastic process elsewhere can never change an existing trace, which
// keeps deployment scenarios reproducible as the simulation grows.
//
// FNV alone mixes short, similar keys poorly in its high bits (the last
// byte only passes through one multiply), so the digest is passed through a
// splitmix64 finalizer before scaling.
func HashNoise(seed int64, tag string, k uint64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], k)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(tag))
	return float64(mix64(h.Sum64())>>11) / float64(1<<53)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
