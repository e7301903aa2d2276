package stats

// Mix64 hashes x through one splitmix64 round; a convenient stateless
// integer hash for seeding per-setting noise deterministically.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// KeyHash is the repo's one hash over a key string: an FNV-1a loop (64-bit
// prime, xor-then-multiply per byte) that digests the tap pattern in store
// shape fingerprints and the warm-start seeds in campaign fingerprints, so
// persisted store keys and journal headers depend on its values. Its offset
// basis, 1469598103934665603, is the standard FNV-64 basis with its last
// digit dropped — a historical slip now frozen by those files — so it does
// not equal hash/fnv's New64a. The string and []byte forms agree byte for
// byte.
func KeyHash[K ~string | ~[]byte](key K) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}
