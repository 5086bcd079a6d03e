package globalrand

import randv2 "math/rand/v2"

func badV2() int {
	return randv2.IntN(10) // want `rand\.IntN draws from the shared global source`
}

func okSeededPCG(seed uint64) int {
	r := randv2.New(randv2.NewPCG(seed, seed)) // v2 constructors build explicit streams
	return r.IntN(10)
}

func okSeededChaCha8(seed [32]byte) uint64 {
	return randv2.New(randv2.NewChaCha8(seed)).Uint64()
}

func okZipfV2(seed uint64) uint64 {
	return randv2.NewZipf(randv2.New(randv2.NewPCG(seed, 0)), 1.5, 1, 9).Uint64()
}
