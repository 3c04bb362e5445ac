package datalog

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// Fact is one extensional edit for ApplyDelta: a ground fact given by
// constant names.
type Fact struct {
	Pred string
	Args []string
}

// DeltaStats summarizes one ApplyDelta run.
type DeltaStats struct {
	EDBInserted int // extensional facts actually inserted (absent before)
	EDBDeleted  int // extensional facts actually deleted (present before)
	Overdeleted int // intensional facts removed by the over-delete phase
	Rederived   int // overdeleted facts restored by the targeted re-derive pass
	Derived     int // intensional facts added by insertion propagation
}

// ErrDeltaUnsupported marks programs or edits outside the incremental
// engine's supported fragment; callers fall back to a cold Eval.
var ErrDeltaUnsupported = errors.New("datalog: incremental delta unsupported")

// ApplyDelta is ApplyDeltaCtx with a background context.
func ApplyDelta(p *Program, db *DB, ins, del []Fact) (DeltaStats, error) {
	return ApplyDeltaCtx(context.Background(), p, db, ins, del)
}

// ApplyDeltaCtx incrementally maintains a materialized least fixpoint
// under extensional edits: db must be the result of a previous
// Eval(p, edb) (the EDB plus every derived fact), and on success it is
// mutated in place to equal Eval(p, edb − del + ins). Insertions are
// propagated semi-naively with the edit delta as the seed; retractions
// use DRed (over-delete every derivation that consumed a deleted fact,
// then re-derive what has an intact alternative support), both phases
// reusing the compiled rule machinery — every delta join runs through
// cached rulePlans like Eval's, with the delta relation as the scan
// input.
//
// Both phases are consumer-driven: tasks are scheduled per delta tuple
// through an index over the rules' body occurrences, so the cost is
// proportional to the dirty cone of the edit, not to the program —
// compiled MSO programs have thousands of strata and mostly-ground rule
// bodies, and a single-tuple edit must not visit them all. The index
// (with its compiled rules, stratification, and validation) is cached on
// db across calls, keyed by program identity: the program must not be
// mutated between calls, and calls sharing a db must not run
// concurrently — both already required by the in-place maintenance
// contract.
//
// Supported fragment: edits must target extensional predicates, and
// negation may only be applied to extensional predicates (the paper's
// programs and every compiled MSO program satisfy this; Theorem 4.5's
// constructions negate only τ-atoms). Outside the fragment the sentinel
// ErrDeltaUnsupported is returned and db is left unchanged.
//
// On any other error (cancellation, budget, injected fault) db may be
// left mid-maintenance and must be discarded by the caller.
func ApplyDeltaCtx(ctx context.Context, p *Program, db *DB, ins, del []Fact) (DeltaStats, error) {
	var stats DeltaStats
	if err := faultinject.Check("datalog.delta"); err != nil {
		return stats, stage.Wrap(stage.Eval, err)
	}
	cfg := evalConfig{
		budget:    stage.BudgetFrom(ctx),
		collector: statsCollectorFrom(ctx),
	}
	ix := db.deltaIx
	if ix == nil || ix.p != p {
		var err error
		if ix, err = buildDeltaIndex(p, db); err != nil {
			return stats, err
		}
		db.deltaIx = ix
	}
	ix.ctx, ix.cfg = ctx, cfg
	arities := map[string]int{}
	for _, f := range append(append([]Fact(nil), ins...), del...) {
		if ix.intens[f.Pred] {
			return stats, fmt.Errorf("%w: edit targets intensional predicate %s", ErrDeltaUnsupported, f.Pred)
		}
		if IsBuiltin(f.Pred) {
			return stats, fmt.Errorf("%w: edit targets builtin %s", ErrDeltaUnsupported, f.Pred)
		}
		if r, ok := db.rels[f.Pred]; ok && r.arity != len(f.Args) {
			return stats, fmt.Errorf("datalog: delta fact %s/%d conflicts with stored arity %d", f.Pred, len(f.Args), r.arity)
		}
		if a, seen := arities[f.Pred]; seen && a != len(f.Args) {
			return stats, fmt.Errorf("datalog: delta facts disagree on arity of %s (%d vs %d)", f.Pred, a, len(f.Args))
		}
		arities[f.Pred] = len(f.Args)
	}

	// Net effective edit sets: deletions of facts actually present,
	// insertions of facts actually absent, with delete+re-insert (or
	// insert+delete) pairs cancelling out.
	delBy, insBy := map[string][][]int{}, map[string][][]int{}
	delKeys := map[string]int{} // fact key → index into delBy[pred]; -1 = cancelled
	for _, f := range del {
		t, ok := internedTuple(db, f, false)
		if !ok {
			continue // an unknown constant cannot appear in a stored fact
		}
		r := db.rels[f.Pred]
		if r == nil || !r.has(t) {
			continue
		}
		k := tupleKey(f.Pred, t)
		if _, dup := delKeys[k]; dup {
			continue
		}
		delKeys[k] = len(delBy[f.Pred])
		delBy[f.Pred] = append(delBy[f.Pred], t)
	}
	for _, f := range ins {
		t, _ := internedTuple(db, f, true)
		k := tupleKey(f.Pred, t)
		if i, dead := delKeys[k]; dead {
			if i >= 0 { // cancel the pending deletion instead of inserting
				delBy[f.Pred][i] = nil
				delKeys[k] = -1
			}
			continue
		}
		if r := db.rels[f.Pred]; r != nil && r.has(t) {
			continue
		}
		insBy[f.Pred] = append(insBy[f.Pred], t)
	}
	for pred := range delBy {
		live := delBy[pred][:0]
		for _, t := range delBy[pred] {
			if t != nil {
				live = append(live, t)
			}
		}
		if len(live) == 0 {
			delete(delBy, pred)
		} else {
			delBy[pred] = live
		}
	}
	for pred := range insBy {
		if len(insBy[pred]) == 0 {
			delete(insBy, pred)
		}
	}
	if len(delBy) == 0 && len(insBy) == 0 {
		return stats, nil
	}

	// Phase A — over-delete, against the physically untouched old state:
	// find every intensional fact with a derivation that consumed a
	// deleted fact (positive occurrence of a deletion) or relied on the
	// absence of an inserted fact (negated occurrence of an insertion).
	// allDel accumulates the deletion wavefront across strata; overdel
	// records the per-predicate over-delete sets (deduplicated).
	allDel := map[string]*relation{}
	insSeedRel := map[string]*relation{}
	for pred, tuples := range delBy {
		d := newDeltaRelation(len(tuples[0]))
		for _, t := range tuples {
			d.appendShared(t)
		}
		allDel[pred] = d
	}
	for pred, tuples := range insBy {
		d := newDeltaRelation(len(tuples[0]))
		for _, t := range tuples {
			d.appendShared(t)
		}
		insSeedRel[pred] = d
	}
	overdel := map[string]*relation{}
	if err := ix.overDelete(allDel, insSeedRel, overdel); err != nil {
		return stats, err
	}

	// Phase B — apply the physical edits: drop the over-deleted facts
	// and the EDB deletions, insert the EDB insertions.
	for pred, od := range overdel {
		if len(od.tuples) == 0 {
			continue
		}
		stats.Overdeleted += db.rels[pred].removeBatch(od.tuples)
	}
	for pred, tuples := range delBy {
		stats.EDBDeleted += db.rels[pred].removeBatch(tuples)
	}
	allIns := map[string]*relation{}
	for pred, tuples := range insBy {
		rel := db.rel(pred, len(tuples[0]))
		d := newDeltaRelation(len(tuples[0]))
		for _, t := range tuples {
			if rel.insertOwned(t) {
				d.appendShared(t)
				stats.EDBInserted++
			}
		}
		allIns[pred] = d
	}

	// Phase C — re-derive and propagate insertions against the new state:
	// restore over-deleted facts with an intact alternative derivation,
	// then run semi-naive insertion rounds with the accumulated insertion
	// delta as the seed (negated occurrences of EDB deletions seed
	// additional derivations first).
	n, err := ix.rederive(overdel, allDel, allIns)
	if err != nil {
		return stats, err
	}
	stats.Rederived = n.rederived
	stats.Derived = n.derived
	return stats, nil
}

// internedTuple maps a fact's constant names to IDs. With intern=false a
// name not already interned reports !ok instead of being added.
func internedTuple(db *DB, f Fact, intern bool) ([]int, bool) {
	t := make([]int, len(f.Args))
	for i, c := range f.Args {
		if intern {
			t[i] = db.Intern(c)
			continue
		}
		id, ok := db.byName[c]
		if !ok {
			return nil, false
		}
		t[i] = id
	}
	return t, true
}

// tupleKey is a map key for one ground fact over interned constants.
func tupleKey(pred string, t []int) string {
	b := make([]byte, 0, len(pred)+4*len(t))
	b = append(b, pred...)
	for _, v := range t {
		b = append(b, 0)
		b = fmt.Appendf(b, "%d", v)
	}
	return string(b)
}

// consumer is one body occurrence of a predicate: rule index into
// p.Rules plus the occurrence's position in that rule's body.
type consumer struct {
	ri, occ int
}

// consumerIndex maps delta tuples to the body occurrences they can
// match. Compiled MSO programs consist almost entirely of ground atoms,
// so a single-tuple edit usually matches a handful of occurrences out of
// thousands mentioning the predicate: fully ground occurrences are keyed
// by their exact tuple, occurrences with a constant first argument by
// (pred, first constant), and only the rest fall back to the
// per-predicate bucket.
type consumerIndex struct {
	exact map[string][]consumer // fully ground occurrence, keyed by tupleKey
	byC0  map[string][]consumer // constant first argument, keyed by (pred, c0)
	any   map[string][]consumer // everything else, keyed by predicate
}

func newConsumerIndex() consumerIndex {
	return consumerIndex{
		exact: map[string][]consumer{},
		byC0:  map[string][]consumer{},
		any:   map[string][]consumer{},
	}
}

func (cx *consumerIndex) addOcc(db *DB, pred string, args []Term, cn consumer) {
	ground := len(args) > 0
	for _, t := range args {
		if t.IsVar() {
			ground = false
			break
		}
	}
	switch {
	case ground:
		ids := make([]int, len(args))
		for i, t := range args {
			ids[i] = db.Intern(t.Const)
		}
		k := tupleKey(pred, ids)
		cx.exact[k] = append(cx.exact[k], cn)
	case len(args) > 0 && !args[0].IsVar():
		k := tupleKey(pred, []int{db.Intern(args[0].Const)})
		cx.byC0[k] = append(cx.byC0[k], cn)
	default:
		cx.any[pred] = append(cx.any[pred], cn)
	}
}

// forTuples calls emit for every consumer whose occurrence could match
// one of the predicate's delta tuples (conservatively for the byC0
// bucket: remaining constants are checked by the join itself).
func (cx *consumerIndex) forTuples(pred string, tuples [][]int, emit func(consumer)) {
	for _, cn := range cx.any[pred] {
		emit(cn)
	}
	for _, t := range tuples {
		if len(t) == 0 {
			continue
		}
		for _, cn := range cx.byC0[tupleKey(pred, t[:1])] {
			emit(cn)
		}
		for _, cn := range cx.exact[tupleKey(pred, t)] {
			emit(cn)
		}
	}
}

// deltaIndex is the scheduling index ApplyDelta caches on the database:
// the validated program's stratification, per-tuple consumer indexes for
// positive and negated occurrences, and compiled rule instances keyed by
// (rule, occurrence) — everything that is per-program, so repeated edits
// against a warm database pay only for their dirty cone.
type deltaIndex struct {
	ctx         context.Context
	p           *Program
	db          *DB
	cfg         evalConfig
	intens      map[string]bool
	strata      [][]string
	nStrata     int
	ruleStratum []int            // rule index → stratum of its head
	byHead      map[string][]int // head pred → rule indices (program order)
	pos         consumerIndex    // positive non-builtin occurrences
	neg         consumerIndex    // negated non-builtin occurrences
	plain       []*cRule         // compiled rules for derives, by rule index
	flipCache   map[consumer]*cRule
	instCache   map[consumer]*cRule
}

// buildDeltaIndex validates the program against the supported fragment
// and builds the scheduling index. Constants are interned up front so
// compilation inside the phases never races with DB readers.
func buildDeltaIndex(p *Program, db *DB) (*deltaIndex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	intens := p.IntensionalPreds()
	for pred := range intens {
		if IsBuiltin(pred) {
			return nil, fmt.Errorf("datalog: builtin %s cannot be intensional", pred)
		}
	}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if a.Negated && intens[a.Pred] {
				return nil, fmt.Errorf("%w: rule %s negates intensional predicate %s", ErrDeltaUnsupported, r, a.Pred)
			}
		}
	}
	strata, err := stratify(p)
	if err != nil {
		return nil, err
	}
	internProgramConsts(p, db)
	predStratum := make(map[string]int, len(intens))
	for s, preds := range strata {
		for _, pred := range preds {
			predStratum[pred] = s
		}
	}
	ix := &deltaIndex{
		p: p, db: db,
		intens:      intens,
		strata:      strata,
		nStrata:     len(strata),
		ruleStratum: make([]int, len(p.Rules)),
		byHead:      headIndex(p),
		pos:         newConsumerIndex(),
		neg:         newConsumerIndex(),
		plain:       make([]*cRule, len(p.Rules)),
		flipCache:   map[consumer]*cRule{},
		instCache:   map[consumer]*cRule{},
	}
	for ri, r := range p.Rules {
		ix.ruleStratum[ri] = predStratum[r.Head.Pred]
		for occ, a := range r.Body {
			if IsBuiltin(a.Pred) {
				continue
			}
			cn := consumer{ri, occ}
			if a.Negated {
				ix.neg.addOcc(db, a.Pred, a.Args, cn)
			} else {
				ix.pos.addOcc(db, a.Pred, a.Args, cn)
			}
		}
	}
	return ix, nil
}

// plainRule and instance hand out compiled rule instances, cached
// across calls; the per-call context and budget plumbing is refreshed
// on every access since the cache outlives the call. plainRule's
// instances carry no plan: derives runs them through the backtracking
// matcher.
func (ix *deltaIndex) plainRule(ri int) *cRule {
	c := ix.plain[ri]
	if c == nil {
		c = compileRule(ix.p.Rules[ri], ix.db)
		ix.plain[ri] = c
	}
	c.ctx = ix.ctx
	return c
}

// instance is the rule instance whose streaming plan is driven by the
// consumer's occurrence — the same machinery evalStratum gives its
// tasks. With flip, the occurrence's negation is dropped so it can be
// scanned positively over an edit delta: in phase A over the insertions
// that falsify ¬q(t̄), in phase C over the deletions that make it
// vacuously true.
func (ix *deltaIndex) instance(cn consumer, flip bool) (*cRule, error) {
	cache := ix.instCache
	if flip {
		cache = ix.flipCache
	}
	c := cache[cn]
	if c == nil {
		r := ix.p.Rules[cn.ri]
		if flip {
			r.Body = append([]Atom(nil), r.Body...)
			r.Body[cn.occ].Negated = false
		}
		var err error
		if c, err = compilePlanned(r, ix.db, cn.occ, ix.cfg); err != nil {
			return nil, err
		}
		cache[cn] = c
	}
	c.ctx = ix.ctx
	c.budget = ix.cfg.budget
	c.collector = ix.cfg.collector
	return c, nil
}

// deltaView is a read-only delta relation over src.tuples[from:]; the
// slice is shared, so src must stay append-only while the view is live.
func deltaView(src *relation, from int) *relation {
	n := len(src.tuples)
	return &relation{arity: src.arity, tuples: src.tuples[from:n:n], indexes: map[uint64]*index{}}
}

// overDelete is DRed phase A: over-delete every intensional fact with a
// derivation that consumed a deleted fact (positive occurrence of a
// deletion) or relied on the absence of an inserted fact (negated
// occurrence, flipped positive over the insertion delta). All joins run
// against the old, physically untouched database.
//
// Scheduling is per delta tuple: a task (rule, occurrence) becomes
// pending exactly when a tuple its occurrence could match is deleted,
// and per-stratum watermarks keep the propagation semi-naive — a round
// scans only the tuples that arrived since the predicate's previous
// round in that stratum. Tasks only ever flow to the same or higher
// strata (stratification points dependencies downward), so one ascending
// pass suffices. Batches are sorted by (rule, occurrence), so discovery
// order is deterministic.
func (ix *deltaIndex) overDelete(allDel, insSeed, overdel map[string]*relation) error {
	type dtask struct {
		cn   consumer
		flip bool
	}
	pend := make([]map[dtask]bool, ix.nStrata)
	remaining := 0
	add := func(t dtask) {
		// Over-deletion only removes facts of the old fixpoint: a rule
		// whose head predicate is empty derived nothing, so nothing it
		// derived can die. On type-style programs (one populated type
		// predicate per bag out of dozens possible) this skips the vast
		// majority of a wave fact's consumers.
		if r := ix.db.rels[ix.p.Rules[t.cn.ri].Head.Pred]; r == nil || len(r.tuples) == 0 {
			return
		}
		s := ix.ruleStratum[t.cn.ri]
		m := pend[s]
		if m == nil {
			m = map[dtask]bool{}
			pend[s] = m
		}
		if !m[t] {
			m[t] = true
			remaining++
		}
	}
	// Seeds: consumers of the EDB deletions, and — flipped — negated
	// consumers of the EDB insertions. Batch sorting makes seed order
	// irrelevant, so iterating the edit maps directly is fine.
	for pred, d := range allDel {
		ix.pos.forTuples(pred, d.tuples, func(cn consumer) { add(dtask{cn, false}) })
	}
	for pred, d := range insSeed {
		ix.neg.forTuples(pred, d.tuples, func(cn consumer) { add(dtask{cn, true}) })
	}
	// collect routes one emitted head into the over-delete set; only
	// facts of the old fixpoint not yet over-deleted extend the wave.
	collect := func(pred string, arity int, wave map[string]*relation) func([]int) {
		rel := ix.db.rels[pred]
		od, ok := overdel[pred]
		if !ok {
			od = newRelation(arity)
			overdel[pred] = od
		}
		return func(t []int) {
			if rel == nil || !rel.has(t) {
				return
			}
			stored, added := od.insertRow(t)
			if !added {
				return
			}
			w := wave[pred]
			if w == nil {
				w = newDeltaRelation(arity)
				wave[pred] = w
			}
			w.appendShared(stored)
		}
	}
	for s := 0; s < ix.nStrata && remaining > 0; s++ {
		consumed := map[string]int{} // pred → allDel tuples this stratum has scanned
		for len(pend[s]) > 0 {
			if err := ix.ctx.Err(); err != nil {
				return stage.Wrap(stage.Eval, err)
			}
			batch := make([]dtask, 0, len(pend[s]))
			for t := range pend[s] {
				batch = append(batch, t)
			}
			remaining -= len(batch)
			pend[s] = nil
			sort.Slice(batch, func(a, b int) bool {
				if batch[a].cn != batch[b].cn {
					return batch[a].cn.ri < batch[b].cn.ri ||
						(batch[a].cn.ri == batch[b].cn.ri && batch[a].cn.occ < batch[b].cn.occ)
				}
				return !batch[a].flip && batch[b].flip
			})
			// One shared view per predicate: every in-stratum consumer a
			// deleted tuple can match is scheduled when the tuple arrives,
			// so a round advances the watermark for all of them at once.
			views := map[string]*relation{}
			wave := map[string]*relation{}
			for _, t := range batch {
				src := insSeed
				if !t.flip {
					pred := ix.p.Rules[t.cn.ri].Body[t.cn.occ].Pred
					d := allDel[pred]
					if d == nil || len(d.tuples) == 0 {
						continue
					}
					v, ok := views[pred]
					if !ok {
						if from := consumed[pred]; from < len(d.tuples) {
							v = deltaView(d, from)
						}
						consumed[pred] = len(d.tuples)
						views[pred] = v
					}
					if v == nil {
						continue // already scanned by an earlier round
					}
					src = views
				}
				c, err := ix.instance(t.cn, t.flip)
				if err != nil {
					return err
				}
				head := ix.p.Rules[t.cn.ri].Head
				if err := c.eval(src, t.cn.occ, collect(head.Pred, len(head.Args), wave)); err != nil {
					return err
				}
			}
			// Merge the wave into the deletion wavefront and schedule its
			// consumers, in predicate order for determinism.
			preds := make([]string, 0, len(wave))
			for pred := range wave {
				preds = append(preds, pred)
			}
			sort.Strings(preds)
			for _, pred := range preds {
				d := wave[pred]
				if len(d.tuples) == 0 {
					continue
				}
				w := allDel[pred]
				if w == nil {
					allDel[pred] = d
				} else {
					for _, t := range d.tuples {
						w.appendShared(t)
					}
				}
				ix.pos.forTuples(pred, d.tuples, func(cn consumer) { add(dtask{cn, false}) })
			}
		}
	}
	return nil
}

type rederiveCounts struct {
	rederived int
	derived   int
}

// rederive is DRed phase C, against the new state: restore over-deleted
// facts that kept an alternative derivation, seed derivations a deletion
// unblocked (¬q(t̄) now holds for every net-deleted q-fact), and run
// semi-naive insertion rounds through the shared round runner — these
// reuse per-rule cached plans with the delta relation as the scan input,
// exactly as Eval does. Newly derived facts are merged into allIns and
// their consumers scheduled, with the same per-tuple scheduling and
// per-stratum watermarks as phase A.
func (ix *deltaIndex) rederive(overdel, allDel, allIns map[string]*relation) (rederiveCounts, error) {
	var n rederiveCounts
	pend := make([]map[consumer]bool, ix.nStrata)
	add := func(cn consumer) {
		s := ix.ruleStratum[cn.ri]
		m := pend[s]
		if m == nil {
			m = map[consumer]bool{}
			pend[s] = m
		}
		m[cn] = true
	}
	scheduleIns := func(pred string, tuples [][]int) {
		ix.pos.forTuples(pred, tuples, add)
	}
	record := func(pred string, arity int, stored []int) {
		d := allIns[pred]
		if d == nil {
			d = newDeltaRelation(arity)
			allIns[pred] = d
		}
		d.appendShared(stored)
	}
	// Seeds: the EDB insertions (already merged into allIns by phase B)
	// and, per stratum, the rules a deletion unblocked at a negated
	// occurrence. Negated predicates are extensional in the supported
	// fragment, so their deltas are fixed and the flip tasks run once.
	for pred, d := range allIns {
		scheduleIns(pred, d.tuples)
	}
	unblocked := make([][]consumer, ix.nStrata)
	for pred, d := range allDel {
		ix.neg.forTuples(pred, d.tuples, func(cn consumer) {
			s := ix.ruleStratum[cn.ri]
			unblocked[s] = append(unblocked[s], cn)
		})
	}
	for s := 0; s < ix.nStrata; s++ {
		if err := ix.ctx.Err(); err != nil {
			return n, stage.Wrap(stage.Eval, err)
		}
		// Targeted re-derive: an over-deleted fact whose support never
		// touched a delta is restored here; facts derivable only through
		// other restored or inserted facts are recovered by the insertion
		// rounds below instead.
		for _, pred := range ix.strata[s] {
			od := overdel[pred]
			if od == nil || len(od.tuples) == 0 {
				continue
			}
			cs := make([]*cRule, 0, len(ix.byHead[pred]))
			for _, ri := range ix.byHead[pred] {
				cs = append(cs, ix.plainRule(ri))
			}
			rel := ix.db.rel(pred, od.arity)
			var restored [][]int
			for _, f := range od.tuples {
				ok, err := anyDerivation(cs, f)
				if err != nil {
					return n, err
				}
				if !ok {
					continue
				}
				if stored, added := rel.insertRow(f); added {
					n.rederived++
					record(pred, od.arity, stored)
					restored = append(restored, stored)
				}
			}
			if len(restored) > 0 {
				scheduleIns(pred, restored)
			}
		}
		// Derivations a deletion unblocked, in (rule, occurrence) order;
		// duplicates from several matching tuples run once (the relation
		// dedup makes reruns harmless, this just avoids them).
		sort.Slice(unblocked[s], func(a, b int) bool {
			return unblocked[s][a].ri < unblocked[s][b].ri ||
				(unblocked[s][a].ri == unblocked[s][b].ri && unblocked[s][a].occ < unblocked[s][b].occ)
		})
		var prev *consumer
		for i := range unblocked[s] {
			cn := unblocked[s][i]
			if prev != nil && *prev == cn {
				continue
			}
			prev = &unblocked[s][i]
			if err := ix.ctx.Err(); err != nil {
				return n, stage.Wrap(stage.Eval, err)
			}
			c, err := ix.instance(cn, true)
			if err != nil {
				return n, err
			}
			head := ix.p.Rules[cn.ri].Head
			rel := ix.db.rel(head.Pred, len(head.Args))
			var derived [][]int
			err = c.eval(allDel, cn.occ, func(t []int) {
				if stored, added := rel.insertRow(t); added {
					n.derived++
					record(head.Pred, len(head.Args), stored)
					derived = append(derived, stored)
				}
			})
			if err != nil {
				return n, err
			}
			if len(derived) > 0 {
				scheduleIns(head.Pred, derived)
			}
		}
		// Semi-naive insertion rounds: each batch consumes, per predicate,
		// only the allIns tuples this stratum has not scanned yet.
		consumed := map[string]int{}
		for len(pend[s]) > 0 {
			if err := ix.ctx.Err(); err != nil {
				return n, stage.Wrap(stage.Eval, err)
			}
			batch := make([]consumer, 0, len(pend[s]))
			for cn := range pend[s] {
				batch = append(batch, cn)
			}
			pend[s] = nil
			sort.Slice(batch, func(a, b int) bool {
				return batch[a].ri < batch[b].ri ||
					(batch[a].ri == batch[b].ri && batch[a].occ < batch[b].occ)
			})
			views := map[string]*relation{}
			total := 0
			var tasks []stratumTask
			for _, cn := range batch {
				pred := ix.p.Rules[cn.ri].Body[cn.occ].Pred
				d := allIns[pred]
				if d == nil || len(d.tuples) == 0 {
					continue
				}
				v, ok := views[pred]
				if !ok {
					if from := consumed[pred]; from < len(d.tuples) {
						v = deltaView(d, from)
						total += len(d.tuples) - from
					}
					consumed[pred] = len(d.tuples)
					views[pred] = v
				}
				if v == nil {
					continue // already scanned by an earlier round
				}
				c, err := ix.instance(cn, false)
				if err != nil {
					return n, err
				}
				tasks = append(tasks, stratumTask{prog: c, occ: cn.occ})
			}
			if len(tasks) == 0 {
				continue
			}
			next, err := runStratumRound(ix.ctx, tasks, views, ix.db, total)
			if err != nil {
				return n, err
			}
			preds := make([]string, 0, len(next))
			for pred := range next {
				preds = append(preds, pred)
			}
			sort.Strings(preds)
			for _, pred := range preds {
				d := next[pred]
				if len(d.tuples) == 0 {
					continue
				}
				n.derived += len(d.tuples)
				a := allIns[pred]
				if a == nil {
					allIns[pred] = d
				} else {
					for _, t := range d.tuples {
						a.appendShared(t)
					}
				}
				scheduleIns(pred, d.tuples)
			}
		}
	}
	return n, nil
}

// anyDerivation reports whether any of the compiled rules (all sharing
// one head predicate) derives the fact in the database's current state.
func anyDerivation(rules []*cRule, fact []int) (bool, error) {
	for _, c := range rules {
		ok, err := c.derives(fact)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// derives reports whether the rule derives the given head fact in the
// database's current state: head arguments are unified with the fact up
// front and the body enumeration stops at the first witness.
func (c *cRule) derives(fact []int) (bool, error) {
	for i, a := range c.head {
		if a.slot < 0 {
			if a.c != fact[i] {
				return false, nil
			}
			continue
		}
		if v := c.binding[a.slot]; v >= 0 && v != fact[i] {
			for j := range c.binding {
				c.binding[j] = -1
			}
			return false, nil
		}
		c.binding[a.slot] = fact[i]
	}
	found := false
	c.bind(nil, -1)
	c.emit = func([]int) {
		found = true
		c.stopped = true
	}
	err := c.step(0)
	c.stopped = false
	for j := range c.binding {
		c.binding[j] = -1
	}
	return found, err
}
