package datalog

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/horn"
	"repro/internal/stage"
)

// FuncDep declares that, in every tuple of Pred, the values at the From
// positions uniquely determine the values at the To positions. These are
// the "functional dependence" facts of Definition 4.3: e.g. in
// child1(v1, v), each of v1 and v determines the other, and in
// bag(v, x0, …, xw) the node v determines the entire bag.
type FuncDep struct {
	Pred string
	From []int
	To   []int
}

// TDFuncDeps returns the functional dependencies of the τ_td predicates of
// Section 4 for width w, which make the programs of Theorem 4.5
// quasi-guarded.
func TDFuncDeps(w int) []FuncDep {
	bagTo := make([]int, w+1)
	for i := range bagTo {
		bagTo[i] = i + 1
	}
	return []FuncDep{
		{Pred: "child1", From: []int{1}, To: []int{0}},
		{Pred: "child1", From: []int{0}, To: []int{1}},
		{Pred: "child2", From: []int{1}, To: []int{0}},
		{Pred: "child2", From: []int{0}, To: []int{1}},
		{Pred: "bag", From: []int{0}, To: bagTo},
	}
}

// QuasiGuards returns, for every rule, the index of a body atom that is a
// quasi-guard (Definition 4.3): an extensional positive atom such that
// every rule variable either occurs in it or is functionally dependent on
// its variables via the declared FuncDeps. Returns an error naming the
// first rule without a quasi-guard.
func QuasiGuards(p *Program, fds []FuncDep) ([]int, error) {
	intens := p.IntensionalPreds()
	fdsByPred := map[string][]FuncDep{}
	for _, fd := range fds {
		fdsByPred[fd.Pred] = append(fdsByPred[fd.Pred], fd)
	}
	guards := make([]int, len(p.Rules))
	for ri, r := range p.Rules {
		guards[ri] = -1
		allVars := map[string]bool{}
		for _, t := range r.Head.Args {
			if t.IsVar() {
				allVars[t.Var] = true
			}
		}
		for _, a := range r.Body {
			for _, t := range a.Args {
				if t.IsVar() {
					allVars[t.Var] = true
				}
			}
		}
		if len(allVars) == 0 {
			guards[ri] = -2 // ground rule: trivially quasi-guarded, no guard needed
			continue
		}
		for bi, b := range r.Body {
			if b.Negated || intens[b.Pred] || IsBuiltin(b.Pred) {
				continue
			}
			known := map[string]bool{}
			for _, t := range b.Args {
				if t.IsVar() {
					known[t.Var] = true
				}
			}
			// Close under functional dependence through positive
			// extensional body atoms.
			for changed := true; changed; {
				changed = false
				for _, a := range r.Body {
					if a.Negated || intens[a.Pred] {
						continue
					}
					for _, fd := range fdsByPred[a.Pred] {
						if len(a.Args) <= maxPos(fd) {
							continue
						}
						fromKnown := true
						for _, pos := range fd.From {
							if t := a.Args[pos]; t.IsVar() && !known[t.Var] {
								fromKnown = false
								break
							}
						}
						if !fromKnown {
							continue
						}
						for _, pos := range fd.To {
							if t := a.Args[pos]; t.IsVar() && !known[t.Var] {
								known[t.Var] = true
								changed = true
							}
						}
					}
				}
			}
			covered := true
			for v := range allVars {
				if !known[v] {
					covered = false
					break
				}
			}
			if covered {
				guards[ri] = bi
				break
			}
		}
		if guards[ri] == -1 {
			return nil, fmt.Errorf("datalog: rule %d has no quasi-guard: %s", ri, r)
		}
	}
	return guards, nil
}

func maxPos(fd FuncDep) int {
	m := 0
	for _, p := range fd.From {
		if p > m {
			m = p
		}
	}
	for _, p := range fd.To {
		if p > m {
			m = p
		}
	}
	return m
}

// groundAnalyses counts groundAnalysis builds process-wide; tests diff
// it around groundings to pin that the analysis is built once per
// program, not once per grounding.
var groundAnalyses atomic.Int64

// groundAnalysis is the database-independent half of Theorem 4.4
// grounding: the program checks, and the rules grouped by their
// extensional bodies. The k-type programs of Theorem 4.5 repeat each
// local bag pattern for every combination of child states, so many
// rules share one extensional body up to variable renaming; a grounding
// runs one join per group and fans each row out to the group's rules.
// The first grounding of a program under given FDs builds the analysis
// and caches it on the program; it is read-only afterwards, so
// concurrent groundings share it.
type groundAnalysis struct {
	rules  []Rule // the p.Rules analysed; a grounding after Add rebuilds
	fds    []FuncDep
	err    error    // Validate, semipositivity or quasi-guard failure
	preds  []string // intensional predicates by id
	consts []string // constants of heads and intensional atoms by id
	groups []groundGroup
}

// groundGroup is one distinct extensional body: the ordered extensional
// literals of its rules, with variables renamed by first occurrence.
// body's head lists every variable in that order, so column i of a
// streamed row is variable i.
type groundGroup struct {
	body Rule
	rels []string // positive relational predicates, for the empty-relation skip
	// atoms are the distinct intensional atoms of the members, interned
	// once per row however many members share them.
	atoms   []groundSpec
	members []groundMember
}

// groundMember is one rule of a group: its head and intensional body
// atoms, as indices into the group's atoms.
type groundMember struct {
	head int
	idb  []int
}

// groundSpec is an intensional atom over a group's rows: each argument
// is a row column (≥ 0) or ^i for the constant consts[i].
type groundSpec struct {
	pred int
	args []int
}

// groundAnalysis returns the program's cached analysis for fds,
// building it on first use. The cache holds the analysis of the latest
// FDs and is keyed by the identity and length of p.Rules, so Add (or a
// new Rules slice) invalidates it; editing a rule in place after the
// first grounding is not supported.
func (p *Program) groundAnalysis(fds []FuncDep) *groundAnalysis {
	c := &p.grounding
	c.Lock()
	defer c.Unlock()
	if a := c.a; a != nil && sameRules(a.rules, p.Rules) && equalFDs(a.fds, fds) {
		return a
	}
	c.a = analyzeGrounding(p, fds)
	return c.a
}

func sameRules(a, b []Rule) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func equalFDs(a, b []FuncDep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pred != b[i].Pred || !slices.Equal(a[i].From, b[i].From) || !slices.Equal(a[i].To, b[i].To) {
			return false
		}
	}
	return true
}

func analyzeGrounding(p *Program, fds []FuncDep) *groundAnalysis {
	groundAnalyses.Add(1)
	a := &groundAnalysis{rules: p.Rules, fds: slices.Clone(fds)}
	for i := range a.fds {
		a.fds[i].From, a.fds[i].To = slices.Clone(fds[i].From), slices.Clone(fds[i].To)
	}
	if a.err = p.Validate(); a.err != nil {
		return a
	}
	intens := p.IntensionalPreds()
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if b.Negated && intens[b.Pred] {
				a.err = fmt.Errorf("datalog: quasi-guarded evaluation requires semipositive programs; rule %s negates intensional %s", r, b.Pred)
				return a
			}
		}
	}
	if _, a.err = QuasiGuards(p, fds); a.err != nil {
		return a
	}

	predIDs, constIDs, groupIDs := map[string]int{}, map[string]int{}, map[string]int{}
	var atomIDs []map[string]int // per group: spec key → index into its atoms
	var key strings.Builder
	for _, r := range p.Rules {
		vars := map[string]int{}
		var body Rule
		var rels []string
		key.Reset()
		for _, b := range r.Body {
			if intens[b.Pred] {
				continue
			}
			lit := Atom{Pred: b.Pred, Negated: b.Negated, Args: make([]Term, len(b.Args))}
			if b.Negated {
				key.WriteByte('!')
			}
			key.WriteString(strconv.Quote(b.Pred))
			for i, t := range b.Args {
				if !t.IsVar() {
					lit.Args[i] = t
					key.WriteString(strconv.Quote(t.Const))
					continue
				}
				v, ok := vars[t.Var]
				if !ok {
					v = len(vars)
					vars[t.Var] = v
					body.Head.Args = append(body.Head.Args, V("v"+strconv.Itoa(v)))
				}
				lit.Args[i] = body.Head.Args[v]
				key.WriteString("$" + strconv.Itoa(v))
			}
			key.WriteByte(';')
			body.Body = append(body.Body, lit)
			if !b.Negated && !IsBuiltin(b.Pred) {
				rels = append(rels, b.Pred)
			}
		}
		gi, ok := groupIDs[key.String()]
		if !ok {
			gi = len(a.groups)
			groupIDs[key.String()] = gi
			a.groups = append(a.groups, groundGroup{body: body, rels: rels})
			atomIDs = append(atomIDs, map[string]int{})
		}
		grp := &a.groups[gi]
		// Quasi-guardedness puts every variable of the rule in its
		// extensional literals, so each one has a column.
		atom := func(at Atom) int {
			id, ok := predIDs[at.Pred]
			if !ok {
				id = len(a.preds)
				predIDs[at.Pred] = id
				a.preds = append(a.preds, at.Pred)
			}
			s := groundSpec{pred: id, args: make([]int, len(at.Args))}
			key.Reset()
			key.WriteString(strconv.Itoa(id))
			for i, t := range at.Args {
				if t.IsVar() {
					s.args[i] = vars[t.Var]
				} else {
					c, ok := constIDs[t.Const]
					if !ok {
						c = len(a.consts)
						constIDs[t.Const] = c
						a.consts = append(a.consts, t.Const)
					}
					s.args[i] = ^c
				}
				key.WriteString("," + strconv.Itoa(s.args[i]))
			}
			ai, ok := atomIDs[gi][key.String()]
			if !ok {
				ai = len(grp.atoms)
				atomIDs[gi][key.String()] = ai
				grp.atoms = append(grp.atoms, s)
			}
			return ai
		}
		m := groundMember{head: atom(r.Head)}
		for _, b := range r.Body {
			if intens[b.Pred] {
				m.idb = append(m.idb, atom(b))
			}
		}
		grp.members = append(grp.members, m)
	}
	return a
}

// GroundProgram is the propositional program produced by grounding a
// quasi-guarded datalog program over a database, together with the
// interning table of ground intensional atoms.
type GroundProgram struct {
	Horn *horn.Program
	// The atom table holds no pointers, so the collector never scans
	// it: atoms index their tuples in the flat tuples array, and slots
	// is an open-addressed hash table of atom ID+1 (0: empty).
	atoms  []groundAtom
	tuples []int
	slots  []int32
	preds  []string // intensional predicates by id, shared with the analysis
	buf    []int    // tuple scratch for intern
	db     *DB
	// budget, when non-nil, caps len(atoms) at MaxGroundAtoms: the
	// check fires per newly interned atom, so an over-budget grounding
	// aborts in memory proportional to the cap, not the blowup.
	budget    *stage.Budget
	budgetErr error
}

type groundAtom struct {
	hash      uint64
	pred      int32 // index into GroundProgram.preds
	off, size int32 // the tuple is tuples[off : off+size]
}

// tuple returns the interned tuple of atom id.
func (g *GroundProgram) tuple(id int) []int {
	a := &g.atoms[id]
	return g.tuples[a.off : a.off+a.size : a.off+a.size]
}

// atomID interns a ground atom without building a string key: the
// (predicate id, tuple) pair is hashed FNV-style and probed linearly,
// comparing candidates structurally. A budget violation is recorded in
// g.budgetErr (checked by the grounding loop) rather than returned, so
// the hot path keeps its int-only signature.
func (g *GroundProgram) atomID(pred int, tuple []int) int {
	h := (fnvOffset64 ^ uint64(pred)) * fnvPrime64
	for _, v := range tuple {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	h ^= h >> 29
	if 2*(len(g.atoms)+1) > len(g.slots) {
		g.growSlots()
	}
	mask := uint64(len(g.slots) - 1)
	i := h & mask
	for ; g.slots[i] != 0; i = (i + 1) & mask {
		id := int(g.slots[i] - 1)
		if a := &g.atoms[id]; a.hash == h && int(a.pred) == pred && equalTuple(g.tuple(id), tuple) {
			return id
		}
	}
	if g.budgetErr == nil {
		if err := g.budget.AddGroundAtoms(1); err != nil {
			g.budgetErr = stage.Wrap(stage.Eval, err)
		}
	}
	id := len(g.atoms)
	g.slots[i] = int32(id + 1)
	g.atoms = append(g.atoms, groundAtom{hash: h, pred: int32(pred), off: int32(len(g.tuples)), size: int32(len(tuple))})
	g.tuples = append(g.tuples, tuple...)
	return id
}

// growSlots doubles the hash table (at least 1024 slots) and reinserts
// every atom by its stored hash.
func (g *GroundProgram) growSlots() {
	g.slots = make([]int32, max(1024, 2*len(g.slots)))
	mask := uint64(len(g.slots) - 1)
	for id := range g.atoms {
		i := g.atoms[id].hash & mask
		for g.slots[i] != 0 {
			i = (i + 1) & mask
		}
		g.slots[i] = int32(id + 1)
	}
}

// intern interns the atom s describes under one streamed row.
func (g *GroundProgram) intern(s *groundSpec, row, consts []int) int {
	g.buf = g.buf[:0]
	for _, a := range s.args {
		if a >= 0 {
			g.buf = append(g.buf, row[a])
		} else {
			g.buf = append(g.buf, consts[^a])
		}
	}
	return g.atomID(s.pred, g.buf)
}

// NumAtoms returns the number of distinct ground intensional atoms.
func (g *GroundProgram) NumAtoms() int { return len(g.atoms) }

// Size returns the ground program size (|P'| of Theorem 4.4).
func (g *GroundProgram) Size() int { return g.Horn.Size() }

// Ground instantiates a quasi-guarded, semipositive program over the
// database (Theorem 4.4): for each rule, the quasi-guard is instantiated
// against the EDB and the remaining variables follow by functional
// dependence; extensional literals are evaluated during the join and
// intensional literals become propositional variables. The result has
// size O(|P|·|A|).
func Ground(p *Program, edb *DB, fds []FuncDep) (*GroundProgram, error) {
	return GroundCtx(context.Background(), p, edb, fds)
}

// GroundCtx is Ground with cancellation support: every rule and each
// join plan (every 1024 operator steps) poll ctx. A context error is
// returned wrapped in a *stage.Error tagged stage.Eval.
//
// Rules that share an extensional body (see groundAnalysis) share one
// join: each distinct body runs once, and every streamed row yields one
// Horn clause per rule of the group. The program must not be edited in
// place once grounded; Add invalidates the cached analysis.
func GroundCtx(ctx context.Context, p *Program, edb *DB, fds []FuncDep) (*GroundProgram, error) {
	a := p.groundAnalysis(fds)
	if a.err != nil {
		return nil, a.err
	}
	g := &GroundProgram{Horn: &horn.Program{}, preds: a.preds, db: edb, budget: stage.BudgetFrom(ctx)}
	consts := make([]int, len(a.consts))
	for i, c := range a.consts {
		consts[i] = edb.Intern(c)
	}
	for i := range a.groups {
		if err := g.groundGroup(ctx, &a.groups[i], consts); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// groundGroup emits one Horn clause per member rule for every
// EDB-consistent instance of the group's body. The instances stream out
// of the rule engine's join plan over the extensional literals —
// positive atoms as scans and lookup joins, negated atoms and builtins
// as filters — projected to all the body's variables; each row is
// fanned out to the members as it arrives, so nothing is buffered. The
// plan is unmetered: grounding is charged to MaxGroundAtoms, not to the
// stream-tuples budget or the engine counters.
func (g *GroundProgram) groundGroup(ctx context.Context, grp *groundGroup, consts []int) error {
	for range grp.members {
		if err := ctx.Err(); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
		if err := faultinject.Check("datalog.ground-rule"); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
	}
	for _, pred := range grp.rels {
		if rel := g.db.rels[pred]; rel == nil || len(rel.tuples) == 0 {
			return nil // an empty positive relation admits no instance
		}
	}
	c := compileRule(grp.body, g.db)
	c.ctx, c.unmetered = ctx, true
	plan, err := buildPlan(c, -1)
	if err != nil {
		return err
	}
	c.plan = plan
	ids := make([]int, len(grp.atoms))
	var lits []int
	err = c.eval(nil, -1, func(row []int) {
		for i := range grp.atoms {
			ids[i] = g.intern(&grp.atoms[i], row, consts)
		}
		if g.budgetErr != nil {
			c.stopped = true // over budget: abandon the stream
			return
		}
		for _, m := range grp.members {
			lits = lits[:0]
			for _, j := range m.idb {
				lits = append(lits, ids[j])
			}
			g.Horn.AddClause(ids[m.head], lits...)
		}
	})
	if err != nil {
		return err
	}
	return g.budgetErr
}

// EvalQuasiGuarded evaluates a quasi-guarded semipositive program by
// grounding (Ground) followed by linear-time unit resolution, realizing
// the O(|P|·|A|) bound of Theorem 4.4. The result contains the EDB plus
// all derived intensional facts.
func EvalQuasiGuarded(p *Program, edb *DB, fds []FuncDep) (*DB, error) {
	return EvalQuasiGuardedCtx(context.Background(), p, edb, fds)
}

// EvalQuasiGuardedCtx is EvalQuasiGuarded with cancellation support
// (see GroundCtx); unit resolution itself is linear and runs to
// completion once grounding has succeeded.
func EvalQuasiGuardedCtx(ctx context.Context, p *Program, edb *DB, fds []FuncDep) (*DB, error) {
	g, err := GroundCtx(ctx, p, edb, fds)
	if err != nil {
		return nil, err
	}
	truth := g.Horn.Solve()
	out := edb.Clone()
	for id, tv := range truth {
		if tv {
			out.AddTuple(g.preds[g.atoms[id].pred], g.tuple(id))
		}
	}
	return out, nil
}

// Facts lists the true ground atoms of pred under the given truth
// assignment, sorted; a helper for tests and tools.
func (g *GroundProgram) Facts(truth []bool, pred string) [][]string {
	id := int32(slices.Index(g.preds, pred))
	var out [][]string
	for i, tv := range truth {
		if !tv || g.atoms[i].pred != id {
			continue
		}
		tuple := g.tuple(i)
		names := make([]string, len(tuple))
		for j, e := range tuple {
			names[j] = g.db.ConstName(e)
		}
		out = append(out, names)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
