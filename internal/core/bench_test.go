package core

import (
	"math/rand/v2"
	"testing"

	"freecursive/internal/crypt"
)

// benchAccess measures one encrypted access through the system Build makes
// for s at 2^16 blocks, half of them writes: the ablation points' cost, to
// set beside the root package's BenchmarkAccessPICFunctional.
func benchAccess(b *testing.B, s Scheme) {
	sys, err := Build(Params{Scheme: s, NBlocks: 1 << 16, Functional: true, EncScheme: crypt.SeedGlobal, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	buf := make([]byte, sys.Params.DataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Frontend.Access(rng.Uint64()%sys.Params.NBlocks, i%2 == 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessRecursiveFunctional(b *testing.B) { benchAccess(b, SchemeRecursive) }
func BenchmarkAccessPCFunctional(b *testing.B)        { benchAccess(b, SchemePC) }
