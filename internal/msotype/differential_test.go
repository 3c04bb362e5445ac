package msotype

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/structure"
)

// sigMixed has predicates of arity 0 to 3, so the atomic encoding is
// exercised on nullary atoms and on position vectors longer than two.
var sigMixed = structure.MustSignature(
	structure.Predicate{Name: "p", Arity: 0},
	structure.Predicate{Name: "c", Arity: 1},
	structure.Predicate{Name: "e", Arity: 2},
	structure.Predicate{Name: "t", Arity: 3},
)

// randWitness returns a random structure over sig with n elements, each
// possible tuple present with probability 1/density.
func randWitness(rng *rand.Rand, sig *structure.Signature, n, density int) *structure.Structure {
	st := structure.New(sig)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for _, p := range sig.Predicates() {
		args := make([]int, p.Arity)
		var rec func(d int)
		rec = func(d int) {
			if d == p.Arity {
				if rng.Intn(density) == 0 {
					st.MustAddTuple(p.Name, args...)
				}
				return
			}
			for e := 0; e < n; e++ {
				args[d] = e
				rec(d + 1)
			}
		}
		rec(0)
	}
	return st
}

// oracleAtomicKey is the rank-0 key as computed before the packed index:
// structure.AtomicTypeKey of the tuple plus the membership of every tuple
// element in every set, as text.
func oracleAtomicKey(st *structure.Structure, tuple []int, sets []uint64) string {
	var b strings.Builder
	b.WriteString(st.AtomicTypeKey(tuple))
	for si, s := range sets {
		for ti, elem := range tuple {
			if s>>uint(elem)&1 != 0 {
				fmt.Fprintf(&b, "m%d.%d;", si, ti)
			}
		}
	}
	return b.String()
}

// TestAtomicKeyDifferential checks that the packed-index atomic encoding
// induces exactly the equivalence of the text oracle on random witnesses
// with sets: two positions get equal encodings iff their oracle keys are
// equal. Tuple lengths and set counts vary, since positions of different
// shapes can share a rank-0 type too.
func TestAtomicKeyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	c := NewComputer()
	type sample struct{ enc, oracle string }
	var samples []sample
	for i := 0; i < 400; i++ {
		n := rng.Intn(4) + 1
		st := randWitness(rng, sigMixed, n, rng.Intn(3)+2)
		tuple := make([]int, rng.Intn(4))
		for j := range tuple {
			tuple[j] = rng.Intn(n)
		}
		sets := make([]uint64, rng.Intn(3))
		for j := range sets {
			sets[j] = uint64(rng.Intn(1 << uint(n)))
		}
		if err := c.index(st); err != nil {
			t.Fatal(err)
		}
		enc := c.appendAtomic(nil, &env{tuple: tuple, sets: sets})
		samples = append(samples, sample{string(enc), oracleAtomicKey(st, tuple, sets)})
	}
	equal := 0
	for i := range samples {
		for j := i + 1; j < len(samples); j++ {
			a, b := samples[i], samples[j]
			if (a.enc == b.enc) != (a.oracle == b.oracle) {
				t.Fatalf("samples %d and %d: encodings equal %v, oracle keys %q and %q", i, j, a.enc == b.enc, a.oracle, b.oracle)
			}
			if a.oracle == b.oracle {
				equal++
			}
		}
	}
	if equal < 100 {
		t.Fatalf("only %d equivalent pairs among the samples; the differential is too weak", equal)
	}
}

// typeFull is the test-only reference for Type: it enumerates all
// 2^|dom| set moves at every rank, where Type enumerates only the
// subsets of the tuple's elements at rank 1. It interns through c's
// table, so its IDs are comparable with Type's.
func (c *Computer) typeFull(st *structure.Structure, tuple []int, k int) (TypeID, error) {
	if err := c.index(st); err != nil {
		return 0, err
	}
	id := c.typeOfFull(&env{tuple: append([]int(nil), tuple...)}, k)
	return id, c.err
}

func (c *Computer) typeOfFull(e *env, k int) TypeID {
	if k == 0 {
		c.key = c.appendAtomic(binary.AppendUvarint(c.key[:0], 0), e)
		return c.intern()
	}
	n := int(c.radix)
	var points, sets []TypeID
	for elem := 0; elem < n; elem++ {
		e.tuple = append(e.tuple, elem)
		points = append(points, c.typeOfFull(e, k-1))
		e.tuple = e.tuple[:len(e.tuple)-1]
	}
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		e.sets = append(e.sets, mask)
		sets = append(sets, c.typeOfFull(e, k-1))
		e.sets = e.sets[:len(e.sets)-1]
	}
	key := c.appendAtomic(binary.AppendUvarint(nil, uint64(k)), e)
	key = appendIDs(append(key, tagPoints), points)
	c.key = appendIDs(append(key, tagSets), sets)
	return c.intern()
}

// TestRankOneCollapseDifferential checks the rank-1 set-move collapse
// against the full enumeration on random witnesses, for k = 1 and 2 (at
// k = 2 the rank-1 positions carry the sets of rank-2 set moves). On
// one Computer, the reference must return the ID Type returned and
// intern nothing new: the full enumeration reaches no key the collapsed
// one missed. On separate Computers, both must intern the same number
// of types, so a budget is charged the same, and induce the same
// partition of the witnesses.
func TestRankOneCollapseDifferential(t *testing.T) {
	sig := structure.MustSignature(structure.Predicate{Name: "e", Arity: 2}, structure.Predicate{Name: "c", Arity: 1})
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + k)))
			shared, fast, full := NewComputer(), NewComputer(), NewComputer()
			var fastIDs, fullIDs []TypeID
			for i := 0; i < 40; i++ {
				n := rng.Intn(5) + 1
				if k == 2 {
					n = rng.Intn(4) + 1
				}
				st := randWitness(rng, sig, n, rng.Intn(3)+2)
				tuple := make([]int, rng.Intn(3)+1)
				for j := range tuple {
					tuple[j] = rng.Intn(n)
				}
				id, err := shared.Type(st, tuple, k)
				if err != nil {
					t.Fatal(err)
				}
				before := shared.NumTypes()
				ref, err := shared.typeFull(st, tuple, k)
				if err != nil {
					t.Fatal(err)
				}
				if ref != id || shared.NumTypes() != before {
					t.Fatalf("witness %d: reference type %d (%d types), Type gave %d (%d types)", i, ref, shared.NumTypes(), id, before)
				}
				a, err := fast.Type(st, tuple, k)
				if err != nil {
					t.Fatal(err)
				}
				b, err := full.typeFull(st, tuple, k)
				if err != nil {
					t.Fatal(err)
				}
				if fast.NumTypes() != full.NumTypes() {
					t.Fatalf("witness %d: Type interned %d types, the reference %d", i, fast.NumTypes(), full.NumTypes())
				}
				fastIDs, fullIDs = append(fastIDs, a), append(fullIDs, b)
			}
			for i := range fastIDs {
				for j := i + 1; j < len(fastIDs); j++ {
					if (fastIDs[i] == fastIDs[j]) != (fullIDs[i] == fullIDs[j]) {
						t.Fatalf("witnesses %d and %d: Type says equal %v, the reference %v", i, j, fastIDs[i] == fastIDs[j], fullIDs[i] == fullIDs[j])
					}
				}
			}
		})
	}
}
