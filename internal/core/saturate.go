package core

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/mso"
	"repro/internal/stage"
)

// saturate runs the BASE CASE and INDUCTION STEPs of the Θ↑ (up=true) or
// Θ↓ (up=false) construction of Theorem 4.5 to fixpoint, registering
// types and emitting their datalog rules.
func (c *compiler) saturate(up bool) error {
	w := c.opts.Width

	// BASE CASE: all structures on a single full bag.
	base, err := c.baseWitnesses()
	if err != nil {
		return err
	}
	marker := "root"
	if up {
		marker = "leaf"
	}
	for _, wit := range base {
		rec, _, err := c.registerType(up, wit)
		if err != nil {
			return err
		}
		body := []datalog.Atom{
			bagAtomOf("V", bagVars(w)),
			datalog.NewAtom(marker, datalog.V("V")),
		}
		// rec may be a type registered from another witness; equal
		// types agree on the bag's atoms, so its mask describes wit.
		body = append(body, c.edbLiterals(rec.mask)...)
		c.addRule(datalog.Rule{Head: datalog.NewAtom(rec.name, datalog.V("V")), Body: body})
	}

	// INDUCTION: worklist over registered types. New types appended by
	// registerType are picked up automatically.
	list := func() []*typeRec {
		if up {
			return c.up
		}
		return c.down
	}
	for processed := 0; processed < len(list()); processed++ {
		if err := c.ctx.Err(); err != nil {
			return stage.Wrap(stage.Compile, err)
		}
		rec := list()[processed]
		if err := c.extendPermutations(up, rec); err != nil {
			return err
		}
		if err := c.extendReplacements(up, rec); err != nil {
			return err
		}
		if up {
			// Pair with every already-processed type of the same bag
			// mask and itself, in both orders; later types pair with rec
			// when they are processed. The bucket lists types in
			// registration order and contains rec, so the loop visits
			// exactly the compatible types up to rec, in ascending order.
			for _, o := range c.upByMask[rec.mask] {
				if err := c.extendBranchUp(rec, o); err != nil {
					return err
				}
				if o == rec {
					break
				}
				if err := c.extendBranchUp(o, rec); err != nil {
					return err
				}
			}
		} else {
			// Θ↓ branch combines a Θ↓ type with a compatible Θ↑ type
			// (both orders of the children are emitted inside).
			for _, u := range c.upByMask[rec.mask] {
				if err := c.extendBranchDown(rec, u); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// extendPermutations applies every permutation node extension (case (a)).
func (c *compiler) extendPermutations(up bool, rec *typeRec) error {
	w := c.opts.Width
	for _, pi := range permutations(w) {
		newBag := make([]int, w+1)
		for i := range newBag {
			newBag[i] = rec.wit.bag[pi[i]]
		}
		nrec, _, err := c.registerType(up, witness{st: rec.wit.st, bag: newBag})
		if err != nil {
			return err
		}
		permVars := make([]datalog.Term, w+1)
		for i := range permVars {
			permVars[i] = datalog.V(xVarName(pi[i]))
		}
		var edge, kind datalog.Atom
		if up {
			edge = datalog.NewAtom("child1", datalog.V("V1"), datalog.V("V"))
			kind = datalog.NewAtom("single", datalog.V("V"))
		} else {
			edge = datalog.NewAtom("child1", datalog.V("V"), datalog.V("V1"))
			kind = datalog.NewAtom("single", datalog.V("V1"))
		}
		c.addRule(datalog.Rule{
			Head: datalog.NewAtom(nrec.name, datalog.V("V")),
			Body: []datalog.Atom{
				bagAtomOf("V", permVars),
				edge,
				kind,
				datalog.NewAtom(rec.name, datalog.V("V1")),
				bagAtomOf("V1", bagVars(w)),
			},
		})
	}
	return nil
}

// extendReplacements applies every element replacement extension (case (b)).
func (c *compiler) extendReplacements(up bool, rec *typeRec) error {
	w := c.opts.Width
	exts, err := c.replacementExtensions(rec.wit)
	if err != nil {
		return err
	}
	for _, ext := range exts {
		nrec, _, err := c.registerType(up, ext)
		if err != nil {
			return err
		}
		childBag := append([]datalog.Term{datalog.V("Y0")}, bagVars(w)[1:]...)
		var edge, kind datalog.Atom
		if up {
			edge = datalog.NewAtom("child1", datalog.V("V1"), datalog.V("V"))
			kind = datalog.NewAtom("single", datalog.V("V"))
		} else {
			edge = datalog.NewAtom("child1", datalog.V("V"), datalog.V("V1"))
			kind = datalog.NewAtom("single", datalog.V("V1"))
		}
		body := []datalog.Atom{
			bagAtomOf("V", bagVars(w)),
			edge,
			kind,
			datalog.NewAtom(rec.name, datalog.V("V1")),
			bagAtomOf("V1", childBag),
			// The replaced element is a different element (Def. 2.3);
			// without this guard the rule would also fire on
			// identity-permutation edges and derive the type of a
			// structure with a spurious extra element.
			datalog.NewAtom("neq", datalog.V(xVarName(0)), datalog.V("Y0")),
		}
		body = append(body, c.edbLiterals(nrec.mask)...)
		c.addRule(datalog.Rule{Head: datalog.NewAtom(nrec.name, datalog.V("V")), Body: body})
	}
	return nil
}

// extendBranchUp applies the branch node extension of Θ↑ (case (c)) for
// the ordered pair (first child ϑ1, second child ϑ2) of types with equal
// bag masks (the "EDBs are consistent" condition of the construction).
func (c *compiler) extendBranchUp(t1, t2 *typeRec) error {
	merged, err := c.merge(t1.wit, t2.wit)
	if err != nil {
		return err
	}
	nrec, _, err := c.registerType(true, merged)
	if err != nil {
		return err
	}
	w := c.opts.Width
	c.addRule(datalog.Rule{
		Head: datalog.NewAtom(nrec.name, datalog.V("V")),
		Body: []datalog.Atom{
			bagAtomOf("V", bagVars(w)),
			datalog.NewAtom("child1", datalog.V("V1"), datalog.V("V")),
			datalog.NewAtom(t1.name, datalog.V("V1")),
			datalog.NewAtom("child2", datalog.V("V2"), datalog.V("V")),
			datalog.NewAtom(t2.name, datalog.V("V2")),
			bagAtomOf("V1", bagVars(w)),
			bagAtomOf("V2", bagVars(w)),
		},
	})
	return nil
}

// extendBranchDown applies the branch node extension of Θ↓: a new leaf s1
// attached beside the subtree of an Θ↑ type, below an Θ↓ node (case (c)
// of the top-down construction; both child orders are emitted). d and u
// have equal bag masks.
func (c *compiler) extendBranchDown(d *typeRec, u *typeRec) error {
	merged, err := c.merge(d.wit, u.wit)
	if err != nil {
		return err
	}
	nrec, _, err := c.registerType(false, merged)
	if err != nil {
		return err
	}
	w := c.opts.Width
	// s1 as first child, the Θ↑ subtree as second child.
	c.addRule(datalog.Rule{
		Head: datalog.NewAtom(nrec.name, datalog.V("V1")),
		Body: []datalog.Atom{
			bagAtomOf("V1", bagVars(w)),
			datalog.NewAtom("child1", datalog.V("V1"), datalog.V("V")),
			datalog.NewAtom("child2", datalog.V("V2"), datalog.V("V")),
			datalog.NewAtom(d.name, datalog.V("V")),
			datalog.NewAtom(u.name, datalog.V("V2")),
			bagAtomOf("V", bagVars(w)),
			bagAtomOf("V2", bagVars(w)),
		},
	})
	// s1 as second child.
	c.addRule(datalog.Rule{
		Head: datalog.NewAtom(nrec.name, datalog.V("V2")),
		Body: []datalog.Atom{
			bagAtomOf("V2", bagVars(w)),
			datalog.NewAtom("child1", datalog.V("V1"), datalog.V("V")),
			datalog.NewAtom("child2", datalog.V("V2"), datalog.V("V")),
			datalog.NewAtom(d.name, datalog.V("V")),
			datalog.NewAtom(u.name, datalog.V("V1")),
			bagAtomOf("V", bagVars(w)),
			bagAtomOf("V1", bagVars(w)),
		},
	})
	return nil
}

// emitDecision adds the goal rules of the 0-ary variant: φ ← root(v), ϑ(v)
// for every Θ↑ type whose witness satisfies the sentence.
func (c *compiler) emitDecision() error {
	var budget *mso.Budget
	if c.opts.EvalBudget > 0 {
		budget = &mso.Budget{MaxSteps: c.opts.EvalBudget}
	}
	for _, rec := range c.up {
		ok, err := mso.SentenceCtx(c.ctx, rec.wit.st, c.phi, budget)
		if err != nil {
			if se := stage.Of(err); se != "" {
				return err
			}
			return fmt.Errorf("core: evaluating φ on witness: %w", err)
		}
		if ok {
			c.addRule(datalog.Rule{
				Head: datalog.NewAtom("phi"),
				Body: []datalog.Atom{
					datalog.NewAtom("root", datalog.V("V")),
					datalog.NewAtom(rec.name, datalog.V("V")),
				},
			})
		}
	}
	return nil
}

// emitSelection adds the element-selection rules (part 3 of the
// construction): for compatible pairs ϑ1 ∈ Θ↑, ϑ2 ∈ Θ↓ whose merged
// witness satisfies φ(a_i), the rule φ(x_i) ← ϑ1(v), ϑ2(v), bag(v, x̄).
func (c *compiler) emitSelection() error {
	w := c.opts.Width
	var budget *mso.Budget
	if c.opts.EvalBudget > 0 {
		budget = &mso.Budget{MaxSteps: c.opts.EvalBudget}
	}
	for _, u := range c.up {
		if err := c.ctx.Err(); err != nil {
			return stage.Wrap(stage.Compile, err)
		}
		for _, d := range c.downByMask[u.mask] {
			merged, err := c.merge(u.wit, d.wit)
			if err != nil {
				return err
			}
			for i := 0; i <= w; i++ {
				ok, err := mso.EvalCtx(c.ctx, merged.st, c.phi,
					mso.Interp{Elem: map[string]int{c.xVar: merged.bag[i]}}, budget)
				if err != nil {
					if se := stage.Of(err); se != "" {
						return err
					}
					return fmt.Errorf("core: evaluating φ on merged witness: %w", err)
				}
				if ok {
					c.addRule(datalog.Rule{
						Head: datalog.NewAtom("phi", datalog.V(xVarName(i))),
						Body: []datalog.Atom{
							datalog.NewAtom(u.name, datalog.V("V")),
							datalog.NewAtom(d.name, datalog.V("V")),
							bagAtomOf("V", bagVars(w)),
						},
					})
				}
			}
		}
	}
	return nil
}
