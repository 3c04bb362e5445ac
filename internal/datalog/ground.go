package datalog

import (
	"context"
	"fmt"
	"sort"

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

// GroundProgram is the propositional program produced by grounding a
// quasi-guarded datalog program over a database, together with the
// interning table of ground intensional atoms.
type GroundProgram struct {
	Horn  *horn.Program
	atoms []groundAtom
	index map[uint64][]int // atom hash → candidate IDs (collision bucket)
	db    *DB
	// budget, when non-nil, caps len(atoms) at MaxGroundAtoms: the
	// check fires per newly interned atom, so an over-budget grounding
	// aborts in memory proportional to the cap, not the blowup.
	budget    *stage.Budget
	budgetErr error
}

type groundAtom struct {
	pred  string
	tuple []int
}

// atomID interns a ground atom without building a string key: the
// (pred, tuple) pair is hashed FNV-style and candidates in the collision
// bucket are compared structurally. A budget violation is recorded in
// g.budgetErr (checked by the grounding loops) rather than returned, so
// the hot path keeps its int-only signature.
func (g *GroundProgram) atomID(pred string, tuple []int) int {
	h := fnvOffset64
	for i := 0; i < len(pred); i++ {
		h ^= uint64(pred[i])
		h *= fnvPrime64
	}
	h ^= uint64(len(pred)) // separate predicate bytes from tuple words
	h *= fnvPrime64
	for _, v := range tuple {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	for _, id := range g.index[h] {
		a := g.atoms[id]
		if a.pred == pred && equalTuple(a.tuple, tuple) {
			return id
		}
	}
	if g.budgetErr == nil {
		if err := g.budget.AddGroundAtoms(1); err != nil {
			g.budgetErr = stage.Wrap(stage.Eval, err)
		}
	}
	id := len(g.atoms)
	g.index[h] = append(g.index[h], id)
	g.atoms = append(g.atoms, groundAtom{pred: pred, tuple: append([]int(nil), tuple...)})
	return id
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

// GroundCtx is Ground with cancellation support: the per-rule loop and
// each rule's join plan (every 1024 operator steps) poll ctx. A context
// error is returned wrapped in a *stage.Error tagged stage.Eval.
func GroundCtx(ctx context.Context, p *Program, edb *DB, fds []FuncDep) (*GroundProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	intens := p.IntensionalPreds()
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if a.Negated && intens[a.Pred] {
				return nil, fmt.Errorf("datalog: quasi-guarded evaluation requires semipositive programs; rule %s negates intensional %s", r, a.Pred)
			}
		}
	}
	if _, err := QuasiGuards(p, fds); err != nil {
		return nil, err
	}
	g := &GroundProgram{Horn: &horn.Program{}, index: map[uint64][]int{}, db: edb, budget: stage.BudgetFrom(ctx)}
	for _, r := range p.Rules {
		if err := ctx.Err(); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		if err := faultinject.Check("datalog.ground-rule"); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		if err := g.instantiate(ctx, r, intens); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// instantiate emits one Horn clause per EDB-consistent instance of the
// rule. The instances stream out of the rule engine's join plan over the
// rule's extensional literals — positive atoms as scans and lookup
// joins, negated atoms and builtins as filters — projected to the
// arguments of the head followed by those of each intensional body
// atom, which are then interned as propositional variables. The plan is
// unmetered: grounding is charged to MaxGroundAtoms, not to the
// stream-tuples budget or the engine counters.
func (g *GroundProgram) instantiate(ctx context.Context, r Rule, intens map[string]bool) error {
	ext := Rule{Head: Atom{Pred: r.Head.Pred, Args: append([]Term(nil), r.Head.Args...)}}
	var idb []Atom
	for _, a := range r.Body {
		if intens[a.Pred] {
			idb = append(idb, a)
			ext.Head.Args = append(ext.Head.Args, a.Args...)
			continue
		}
		if !a.Negated && !IsBuiltin(a.Pred) {
			if rel := g.db.rels[a.Pred]; rel == nil || len(rel.tuples) == 0 {
				return nil // an empty positive relation admits no instance
			}
		}
		ext.Body = append(ext.Body, a)
	}
	c := compileRule(ext, g.db)
	c.ctx, c.unmetered = ctx, true
	plan, err := buildPlan(c, -1)
	if err != nil {
		return err
	}
	c.plan = plan
	lits := make([]int, len(idb))
	err = c.eval(nil, -1, func(row []int) {
		if g.budgetErr != nil {
			return // over budget: drain the stream without interning
		}
		n := len(r.Head.Args)
		head := g.atomID(r.Head.Pred, row[:n])
		for i, a := range idb {
			lits[i] = g.atomID(a.Pred, row[n:n+len(a.Args)])
			n += len(a.Args)
		}
		if g.budgetErr == nil {
			g.Horn.AddClause(head, lits...)
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
			a := g.atoms[id]
			out.AddTuple(a.pred, a.tuple)
		}
	}
	return out, nil
}

// Facts lists the true ground atoms of pred under the given truth
// assignment, sorted; a helper for tests and tools.
func (g *GroundProgram) Facts(truth []bool, pred string) [][]string {
	var out [][]string
	for id, tv := range truth {
		if !tv || g.atoms[id].pred != pred {
			continue
		}
		names := make([]string, len(g.atoms[id].tuple))
		for i, e := range g.atoms[id].tuple {
			names[i] = g.db.ConstName(e)
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
