package replay

import (
	"math/rand"
	"testing"
)

// The shared stream is the sequence a per-policy rand source seeded
// the same way draws, so the k-th switch of every policy keeps its
// deviate.
func TestJitterStreamIsSeededPrefix(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, -7} {
		for _, n := range []int{0, 1, 37, 500} {
			z := jitterStream(seed, n)
			if len(z) != n {
				t.Fatalf("jitterStream(%d, %d) has %d deviates", seed, n, len(z))
			}
			rng := rand.New(rand.NewSource(seed))
			for k := range z {
				if want := rng.NormFloat64(); z[k] != want {
					t.Fatalf("seed %d: z[%d] = %v, rand source draws %v", seed, k, z[k], want)
				}
			}
		}
	}
}
