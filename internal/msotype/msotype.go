// Package msotype computes rank-k MSO types (Hintikka types) of finite
// structures with distinguished elements: canonical, finitely-represented
// objects such that two structures are ≡^MSO_k-equivalent (Section 2.3) iff
// their rank-k types coincide.
//
// The type is defined by back-and-forth recursion mirroring the k-round
// MSO Ehrenfeucht–Fraïssé game the paper uses in Lemmas 3.5–3.7:
//
//	type_0(A, ā, P̄)  =  atomic type of ā (relations, equalities, and
//	                     membership of each a_i in each P_j)
//	type_k(A, ā, P̄)  =  ( type_0,
//	                      { type_{k-1}(A, ā·c, P̄) : c ∈ dom(A) },     point moves
//	                      { type_{k-1}(A, ā, P̄·S) : S ⊆ dom(A) } )    set moves
//
// The duplicator wins the k-round game on (A,ā) and (B,b̄) iff every move
// on one side is matched by a move on the other reaching equal
// (k-1)-types, which is exactly equality of the reachable-type sets.
// Types are interned so equality is integer comparison — they serve as the
// "tokens ϑ" of Theorem 4.5's construction.
//
// Representation. A type's key is a byte string: the rank, the atomic
// part as a canonical list of the facts that hold (equal positions,
// relation atoms over positions, set memberships of positions), and for
// rank ≥ 1 the sorted IDs of the point-move and set-move types. Each Type
// call indexes the witness's relations once by packed-integer tuple keys,
// the atomic part is read from that index, and keys are built in one
// reused buffer, so looking up a known type allocates nothing. At rank 1
// the set moves range over the subsets of the tuple's distinct elements
// instead of all of dom(A): a rank-0 type sees a set only through which
// tuple elements it contains, so both enumerations reach the same keys.
package msotype

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/stage"
	"repro/internal/structure"
)

// TypeID identifies an interned type. IDs are comparable across structures
// for types produced by the same Computer.
type TypeID int

// Computer computes and interns rank-k types. The zero value is not
// usable; use NewComputer. A Computer is not safe for concurrent use.
type Computer struct {
	ids map[string]TypeID
	// MaxDomain bounds the domain size of structures whose types may be
	// computed; the set-move enumeration is 2^|dom| per quantifier level.
	MaxDomain int
	// Budget, when non-nil, charges every newly interned type against
	// its MaxStates cap. Once the cap is exceeded the computer goes
	// sticky-failed: the enumeration recursion short-circuits and every
	// subsequent Type call returns the budget error, so a non-elementary
	// type blowup (Theorem 4.5) is cut off in bounded memory.
	Budget *stage.Budget

	err error // sticky budget violation

	// Scratch reused across Type calls.
	key    []byte     // the key being built
	rels   [][]uint64 // rels[p]: sorted packed tuples of predicate p
	arity  []int      // arity[p]
	radix  uint64     // domain size of the indexed structure
	pos    []int      // position vector of the atom being probed
	points [][]TypeID // points[k]: point-move types of a rank-k position
	sets   [][]TypeID // sets[k]: set-move types of a rank-k position
}

// Key tags. Every fact of the atomic part starts with one, followed by a
// fixed number of uvarints, so a key parses unambiguously.
const (
	tagEq     = 'e' // positions i < j hold equal elements: i, j
	tagRel    = 'r' // predicate p holds at positions: p, then arity(p) positions
	tagMember = 'm' // set s contains the element at position i: s, i
	tagPoints = 'p' // point-move types: count, then the sorted IDs
	tagSets   = 's' // set-move types: count, then the sorted IDs
)

// DefaultMaxDomain is the default bound on witness-structure domains.
const DefaultMaxDomain = 14

// NewComputer returns a Computer with the default domain bound.
func NewComputer() *Computer {
	return &Computer{ids: map[string]TypeID{}, MaxDomain: DefaultMaxDomain}
}

// intern returns the ID of the key in c.key, charging the budget for a
// new one. The lookup converts c.key without copying; only a new key is
// copied into the map.
func (c *Computer) intern() TypeID {
	if id, ok := c.ids[string(c.key)]; ok {
		return id
	}
	if cerr := c.Budget.AddStates(1); cerr != nil {
		c.err = cerr
		return 0
	}
	id := TypeID(len(c.ids))
	c.ids[string(c.key)] = id
	return id
}

// Err returns the sticky budget violation, if any.
func (c *Computer) Err() error { return c.err }

// NumTypes returns the number of distinct interned types (across all
// ranks and structures seen so far).
func (c *Computer) NumTypes() int { return len(c.ids) }

// Type computes the rank-k type of (st, tuple).
func (c *Computer) Type(st *structure.Structure, tuple []int, k int) (TypeID, error) {
	if st.Size() > c.MaxDomain {
		return 0, fmt.Errorf("msotype: domain size %d exceeds bound %d (the type computation enumerates all subsets)", st.Size(), c.MaxDomain)
	}
	if st.Size() > 63 {
		return 0, fmt.Errorf("msotype: domain size %d exceeds subset-mask limit", st.Size())
	}
	if c.err != nil {
		return 0, c.err
	}
	if err := c.index(st); err != nil {
		return 0, err
	}
	for len(c.points) <= k {
		c.points = append(c.points, nil)
		c.sets = append(c.sets, nil)
	}
	e := &env{tuple: append(make([]int, 0, len(tuple)+k), tuple...)}
	id := c.typeOf(e, k)
	if c.err != nil {
		return 0, c.err
	}
	return id, nil
}

// Equivalent reports whether (stA, tupleA) ≡^MSO_k (stB, tupleB).
func (c *Computer) Equivalent(stA *structure.Structure, tupleA []int, stB *structure.Structure, tupleB []int, k int) (bool, error) {
	ta, err := c.Type(stA, tupleA, k)
	if err != nil {
		return false, err
	}
	tb, err := c.Type(stB, tupleB, k)
	if err != nil {
		return false, err
	}
	return ta == tb, nil
}

// index loads st's relations into c.rels, each tuple packed as the
// base-|dom| number Σ t_i·|dom|^i, sorted for binary search.
func (c *Computer) index(st *structure.Structure) error {
	preds := st.Sig().Predicates()
	c.radix = uint64(st.Size())
	for len(c.rels) < len(preds) {
		c.rels = append(c.rels, nil)
	}
	c.rels, c.arity = c.rels[:len(preds)], c.arity[:0]
	for pi, p := range preds {
		if !packable(c.radix, p.Arity) {
			return fmt.Errorf("msotype: predicate %s of arity %d over %d elements exceeds the packed tuple-key limit", p.Name, p.Arity, c.radix)
		}
		c.arity = append(c.arity, p.Arity)
		r := c.rels[pi][:0]
		for _, t := range st.TuplesIdx(pi) {
			r = append(r, c.pack(t))
		}
		slices.Sort(r)
		c.rels[pi] = r
	}
	return nil
}

// packable reports whether radix^arity fits in a uint64, so that every
// packed tuple is distinct.
func packable(radix uint64, arity int) bool {
	p := uint64(1)
	for i := 0; i < arity; i++ {
		hi, lo := bits.Mul64(p, radix)
		if hi != 0 {
			return false
		}
		p = lo
	}
	return true
}

func (c *Computer) pack(t []int) uint64 {
	var key uint64
	for i := len(t) - 1; i >= 0; i-- {
		key = key*c.radix + uint64(t[i])
	}
	return key
}

// env is the game position: the point-move history appended to the
// distinguished tuple, and the set-move history as element bitmasks
// (domains have at most 63 elements).
type env struct {
	tuple []int
	sets  []uint64
}

func (c *Computer) typeOf(e *env, k int) TypeID {
	if c.err != nil {
		return 0
	}
	if k == 0 {
		c.key = c.appendAtomic(binary.AppendUvarint(c.key[:0], 0), e)
		return c.intern()
	}
	n := int(c.radix)
	// Point moves.
	points := c.points[k][:0]
	for elem := 0; elem < n && c.err == nil; elem++ {
		e.tuple = append(e.tuple, elem)
		points = append(points, c.typeOf(e, k-1))
		e.tuple = e.tuple[:len(e.tuple)-1]
	}
	// Set moves. A rank-0 type sees a set only through the tuple
	// elements it contains, so at rank 1 the subsets of the tuple's
	// elements reach exactly the types that all of dom(A)'s do.
	sets := c.sets[k][:0]
	all := uint64(1)<<uint(n) - 1
	if k == 1 {
		all = 0
		for _, elem := range e.tuple {
			all |= 1 << uint(elem)
		}
	}
	for s := uint64(0); c.err == nil; s = (s - all) & all {
		e.sets = append(e.sets, s)
		sets = append(sets, c.typeOf(e, k-1))
		e.sets = e.sets[:len(e.sets)-1]
		if s == all {
			break
		}
	}
	c.points[k], c.sets[k] = points, sets
	if c.err != nil {
		return 0
	}
	key := c.appendAtomic(binary.AppendUvarint(c.key[:0], uint64(k)), e)
	key = appendIDs(append(key, tagPoints), points)
	c.key = appendIDs(append(key, tagSets), sets)
	return c.intern()
}

// appendIDs appends the distinct IDs of ids in ascending order, sorting
// ids in place.
func appendIDs(key []byte, ids []TypeID) []byte {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	key = binary.AppendUvarint(key, uint64(len(ids)))
	for _, id := range ids {
		key = binary.AppendUvarint(key, uint64(id))
	}
	return key
}

// appendAtomic appends the rank-0 information of e to key: the equality
// pattern of the tuple, every relation atom that holds over tuple
// positions, and the membership of every tuple element in every chosen
// set, each in a fixed order. Two positions get equal encodings iff
// they satisfy the same facts — the equivalence of
// structure.AtomicTypeKey extended by set memberships.
func (c *Computer) appendAtomic(key []byte, e *env) []byte {
	t := e.tuple
	for i := range t {
		for j := i + 1; j < len(t); j++ {
			if t[i] == t[j] {
				key = binary.AppendUvarint(append(key, tagEq), uint64(i))
				key = binary.AppendUvarint(key, uint64(j))
			}
		}
	}
	for pi, a := range c.arity {
		key = c.appendRel(key, t, pi, a)
	}
	for si, s := range e.sets {
		for ti, elem := range t {
			if s>>uint(elem)&1 != 0 {
				key = binary.AppendUvarint(append(key, tagMember), uint64(si))
				key = binary.AppendUvarint(key, uint64(ti))
			}
		}
	}
	return key
}

// appendRel appends the atoms of predicate pi (arity a) that hold over
// the positions of t, position vectors in lexicographic order.
func (c *Computer) appendRel(key []byte, t []int, pi, a int) []byte {
	rel := c.rels[pi]
	if len(rel) == 0 || (len(t) == 0 && a > 0) {
		return key
	}
	pos := append(c.pos[:0], make([]int, a)...)
	c.pos = pos
	for {
		var packed uint64
		for i := a - 1; i >= 0; i-- {
			packed = packed*c.radix + uint64(t[pos[i]])
		}
		if _, ok := slices.BinarySearch(rel, packed); ok {
			key = binary.AppendUvarint(append(key, tagRel), uint64(pi))
			for _, p := range pos {
				key = binary.AppendUvarint(key, uint64(p))
			}
		}
		// Advance the odometer, last position fastest.
		i := a - 1
		for ; i >= 0; i-- {
			if pos[i]++; pos[i] < len(t) {
				break
			}
			pos[i] = 0
		}
		if i < 0 {
			return key
		}
	}
}

// KeyOf renders a TypeID for debugging (linear scan; test/tool use only).
func (c *Computer) KeyOf(id TypeID) string {
	for k, v := range c.ids {
		if v == id {
			return strconv.Quote(k)
		}
	}
	return strconv.Itoa(int(id))
}
