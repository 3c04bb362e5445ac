package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/decompose"
	"repro/internal/mso"
	"repro/internal/session"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// paper-route: one caller evaluates MSO queries through the library's
// default route (session.Eval with core.Options{}: the automaton backend,
// grounded evaluation). Every op builds a fresh session over a fresh
// structure, so only the program cache, filled during setup, is warm.

var (
	sigTree = structure.MustSignature(structure.Predicate{Name: "e", Arity: 2}, structure.Predicate{Name: "c", Arity: 1})
	sigSet  = structure.MustSignature(structure.Predicate{Name: "c", Arity: 1})
)

// The formulas of BENCH_game.json: quantifier-free queries on colored
// trees (width 1) and rank-1 queries on colors-only sets (width 0), the
// ranks the automaton compiles under default options.
var (
	treeFormulas = []string{"c(x)", "~c(x)", "c(x) | ~c(x)", "c(x) & ~c(x)"}
	setFormulas  = []string{"c(x) & exists y ~c(y)", "c(x) | forall y c(y)", "~c(x) & exists y c(y)"}
)

// defectFormula fails automaton compilation under default options with
// "type limit 2000 exceeded" (the ROADMAP's correctness gap); the
// failure is not cached, so each such op pays the whole attempt.
const defectFormula = "c(x) & exists y (e(x,y) & ~c(y))"

const typeLimitMsg = "type limit 2000 exceeded"

type paperKind int

const (
	paperTree paperKind = iota
	paperSet
	paperDefect
)

func (k paperKind) String() string { return [...]string{"tree", "set", "defect"}[k] }

// paperCycle is the fixed op mix, one defect op in eight. Runs stop only
// at cycle ends, so every run has exactly this mix and each percentile
// lands at the same place in it. Of the 14 completed ops of a cycle, the
// six sets are the fastest, then come three trees at each of n=30 and
// n=60 and two at n=120: the median is the middle of the n=30 trees and
// latency_tail_ms (p75) the middle of the n=60 trees.
var paperCycle = []struct {
	kind paperKind
	n    int
}{
	{paperTree, 30}, {paperSet, 30}, {paperTree, 60}, {paperSet, 60},
	{paperTree, 120}, {paperSet, 120}, {paperTree, 60}, {paperDefect, 60},
	{paperTree, 30}, {paperSet, 30}, {paperTree, 30}, {paperSet, 60},
	{paperTree, 120}, {paperSet, 120}, {paperTree, 60}, {paperDefect, 60},
}

// defectShare is the share of defect ops in paperCycle.
func defectShare() float64 {
	n := 0
	for _, slot := range paperCycle {
		if slot.kind == paperDefect {
			n++
		}
	}
	return float64(n) / float64(len(paperCycle))
}

// paperOp is one op's input, rebuilt from (seed, index) on demand.
type paperOp struct {
	kind    paperKind
	formula string
	st      *structure.Structure
}

func paperInput(seed int64, i int) paperOp {
	slot := paperCycle[i%len(paperCycle)]
	rng := rand.New(rand.NewSource(opSeed(seed, i)))
	op := paperOp{kind: slot.kind}
	switch slot.kind {
	case paperTree:
		op.formula = treeFormulas[rng.Intn(len(treeFormulas))]
	case paperSet:
		op.formula = setFormulas[rng.Intn(len(setFormulas))]
	default:
		op.formula = defectFormula
	}
	if slot.kind == paperSet {
		op.st = coloredSet(slot.n, rng)
	} else {
		op.st = coloredTree(slot.n, 0, rng)
	}
	return op
}

// coloredTree is a random recursive tree over {e/2, c/1}: vertex i hangs
// off a uniformly chosen earlier vertex — one of the window vertices
// before it when window > 0 — and each vertex is colored with
// probability 1/2.
func coloredTree(n, window int, rng *rand.Rand) *structure.Structure {
	st := structure.New(sigTree)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
		if i > 0 {
			parent := rng.Intn(i)
			if window > 0 {
				parent = i - 1 - rng.Intn(min(i, window))
			}
			st.MustAddTuple("e", parent, i)
		}
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", i)
		}
	}
	return st
}

// coloredSet is n elements over {c/1}, each colored with probability 1/2.
func coloredSet(n int, rng *rand.Rand) *structure.Structure {
	st := structure.New(sigSet)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", i)
		}
	}
	return st
}

func parseAll(formulas ...[]string) (map[string]*mso.Formula, error) {
	out := map[string]*mso.Formula{}
	for _, fs := range formulas {
		for _, f := range fs {
			phi, err := mso.Parse(f)
			if err != nil {
				return nil, err
			}
			out[f] = phi
		}
	}
	return out, nil
}

// paperSetup compiles every feasible program into a fresh program
// cache, at the widths the session derives: 1 for trees, 0 for sets.
func paperSetup(ctx context.Context, phis map[string]*mso.Formula) (*session.ProgramCache, error) {
	pc := session.NewProgramCache()
	for _, f := range treeFormulas {
		if _, _, err := pc.Get(ctx, sigTree, phis[f], "x", core.Options{Width: 1}); err != nil {
			return nil, fmt.Errorf("compile %q: %w", f, err)
		}
	}
	for _, f := range setFormulas {
		if _, _, err := pc.Get(ctx, sigSet, phis[f], "x", core.Options{Width: 0}); err != nil {
			return nil, fmt.Errorf("compile %q: %w", f, err)
		}
	}
	return pc, nil
}

// isDefectError reports whether err is the expected compile failure.
func isDefectError(err error) bool {
	var se *stage.Error
	return errors.As(err, &se) && se.Stage == stage.Compile && strings.Contains(err.Error(), typeLimitMsg)
}

func runPaperRoute(ctx context.Context, cfg config) (*report, error) {
	phis, err := parseAll(treeFormulas, setFormulas, []string{defectFormula})
	if err != nil {
		return nil, err
	}
	ref := newHostRef()
	setups, pc, err := medianSetup(setupReps, func() (*session.ProgramCache, error) { return paperSetup(ctx, phis) })
	if err != nil {
		return nil, err
	}

	var trace *paperTrace
	if cfg.trace {
		trace = newPaperTrace(pc)
	}
	rep := &report{}
	var samples []sample
	var busy time.Duration
	var allocBytes uint64
	start := time.Now()
	for cycle := 0; ; cycle++ {
		for slot := range paperCycle {
			i := cycle*len(paperCycle) + slot
			op := paperInput(cfg.seed, i)
			phi := phis[op.formula]
			if !cfg.trace {
				// A traced run reports no end-to-end times, and
				// the reference between ops would leave the
				// untraced op with colder caches than its replay.
				ref.sample()
			}
			a0 := settle()
			t0 := time.Now()
			res, err := session.NewWithCache(op.st, pc).Eval(ctx, phi, "x", core.Options{})
			ns := time.Since(t0)
			allocBytes += totalAlloc() - a0
			busy += ns
			samples = append(samples, sample{class: op.kind.String(), n: op.st.Size(), ns: int64(ns), ok: err == nil})
			rep.attempted++
			if err != nil {
				rep.failed++
			}
			checkPaper(ctx, rep, i, op, phi, res, err)
			if trace != nil {
				if err := trace.replayOp(ctx, rep, i, op, phi, samples[i]); err != nil {
					return nil, err
				}
			}
		}
		if measured(cfg, start, busy) {
			break
		}
	}
	var raw map[string]float64
	if cfg.trace {
		raw = endToEnd(samples, setups, busy, allocBytes, cfg.tail)
	} else {
		rep.endToEnd, raw = singleCaller(samples, ref, setups, busy, allocBytes, cfg.tail)
	}
	hits, misses := pc.Stats()
	rep.info = map[string]any{
		"raw":            raw,
		"ref_ms":         ref.medianMS(),
		"failed_share":   float64(rep.failed) / float64(rep.attempted),
		"defect_share":   defectShare(),
		"cycles":         rep.attempted / len(paperCycle),
		"completed_ops":  rep.attempted - rep.failed,
		"setup_s_each":   setups,
		"program_hits":   hits,
		"program_misses": misses,
	}
	if trace != nil {
		rep.layers, rep.spans = trace.metrics(), trace.tr.spans
	}
	return rep, nil
}

// checkPaper compares op i's answer with the naive MSO checker, outside
// the timed region. A defect op must fail in compile with the type-limit
// error; any other failure is a wrong answer.
func checkPaper(ctx context.Context, rep *report, i int, op paperOp, phi *mso.Formula, res *core.Result, err error) {
	if op.kind == paperDefect {
		if !isDefectError(err) {
			rep.wrongf("op %d: %q: want the stage-compile type-limit error, got %v", i, op.formula, err)
		}
		return
	}
	if err != nil {
		rep.wrongf("op %d: %q on %s n=%d: %v", i, op.formula, op.kind, op.st.Size(), err)
		return
	}
	want, err := mso.QueryCtx(ctx, op.st, phi, "x", nil)
	if err != nil {
		rep.wrongf("op %d: naive checker: %v", i, err)
		return
	}
	if !res.Selected.Equal(want) {
		rep.wrongf("op %d: %q on %s n=%d: selected %v, naive checker %v", i, op.formula, op.kind, op.st.Size(), res.Selected.Elems(), want.Elems())
	}
}

// paperLayers are the on-route layers whose spans bench.layer_coverage
// sums; datalog.seminaive is a reference off the route.
var paperLayers = []string{"decompose", "tree.normalize", "tree.build_td", "core.compile", "datalog.ground", "horn.solve", "core.finish"}

// paperTrace accumulates the traced replay. Each untraced op is
// replayed right after it runs, so both see the same machine state.
type paperTrace struct {
	tr                              *tracer
	pc                              *session.ProgramCache
	untraced, traced                time.Duration
	ops, elems, groundElems         int
	widthMax, compileFailures       int
	tdFacts, atoms, size, trueAtoms int
	groundAlloc                     uint64
	sizeGround                      map[int]time.Duration
	sizeElems                       map[int]int
}

func newPaperTrace(pc *session.ProgramCache) *paperTrace {
	return &paperTrace{tr: newTracer(time.Now()), pc: pc, sizeGround: map[int]time.Duration{}, sizeElems: map[int]int{}}
}

// replayOp re-runs op i through the route's public functions one by
// one — decompose → normalize-tuple → τ_td → compile → ground → LTUR →
// select — with a span around each call, then the semi-naive reference
// on the same program and EDB, and checks the answer again.
func (t *paperTrace) replayOp(ctx context.Context, rep *report, i int, op paperOp, phi *mso.Formula, s sample) error {
	tr := t.tr
	n := op.st.Size()
	settle()
	t.untraced += time.Duration(s.ns)
	t.ops++
	t.elems += n

	root := tr.begin(i, "op", -1)
	var d, norm *tree.Decomposition
	if err := tr.do(i, root, "decompose", func() (err error) {
		d, _, err = decompose.StructureLadderCtx(ctx, op.st)
		return err
	}); err != nil {
		return fmt.Errorf("replay op %d: decompose: %w", i, err)
	}
	t.widthMax = max(t.widthMax, d.Width())
	if err := tr.do(i, root, "tree.normalize", func() (err error) {
		if err := d.Validate(op.st); err != nil {
			return err
		}
		norm, err = tree.NormalizeTupleCtx(ctx, d)
		return err
	}); err != nil {
		return fmt.Errorf("replay op %d: normalize: %w", i, err)
	}
	w := norm.Width()
	var edb *datalog.DB
	var td *structure.Structure
	if err := tr.do(i, root, "tree.build_td", func() (err error) {
		td, _, err = tree.BuildTDCtx(ctx, op.st, norm, w)
		if err == nil {
			edb = datalog.FromStructure(td, "")
		}
		return err
	}); err != nil {
		return fmt.Errorf("replay op %d: τ_td: %w", i, err)
	}
	t.tdFacts += td.Size()
	opts := core.Options{Width: w}
	var compiled *core.Compiled
	if err := tr.do(i, root, "core.compile", func() (err error) {
		compiled, _, err = t.pc.Get(ctx, op.st.Sig(), phi, "x", opts)
		return err
	}); err != nil {
		tr.end(root)
		t.traced += tr.spans[root].dur()
		t.compileFailures++
		if op.kind != paperDefect || !strings.Contains(err.Error(), typeLimitMsg) {
			rep.wrongf("replay op %d: %q: compile: %v", i, op.formula, err)
		}
		return nil
	}
	a0 := totalAlloc()
	gi := tr.begin(i, "datalog.ground", root)
	g, err := datalog.GroundCtx(ctx, compiled.Program, edb.Clone(), datalog.TDFuncDeps(w))
	tr.end(gi)
	if err != nil {
		return fmt.Errorf("replay op %d: ground: %w", i, err)
	}
	t.groundAlloc += totalAlloc() - a0
	var truth []bool
	tr.do(i, root, "horn.solve", func() error {
		truth = g.Horn.Solve()
		return nil
	})
	var res *core.Result
	if err := tr.do(i, root, "core.finish", func() (err error) {
		out := edb.Clone()
		for _, f := range g.Facts(truth, compiled.QueryPred) {
			out.AddFact(compiled.QueryPred, f...)
		}
		res, err = core.FinishResult(op.st, compiled, opts, out, norm.Len(), w, nil)
		return err
	}); err != nil {
		return fmt.Errorf("replay op %d: finish: %w", i, err)
	}
	tr.end(root)
	t.traced += tr.spans[root].dur()

	t.groundElems += n
	t.atoms += g.NumAtoms()
	t.size += g.Size()
	for _, v := range truth {
		if v {
			t.trueAtoms++
		}
	}
	if op.kind == paperTree {
		t.sizeGround[n] += tr.spans[gi].dur()
		t.sizeElems[n] += n
	}
	checkPaper(ctx, rep, i, op, phi, res, nil)

	var ref *datalog.DB
	if err := tr.do(i, -1, "datalog.seminaive", func() (err error) {
		ref, err = datalog.EvalCtx(ctx, compiled.Program, edb.Clone())
		return err
	}); err != nil {
		return fmt.Errorf("replay op %d: semi-naive reference: %w", i, err)
	}
	for e := 0; e < n; e++ {
		if ref.Has(compiled.QueryPred, op.st.Name(e)) != res.Selected.Has(e) {
			rep.wrongf("replay op %d: semi-naive reference disagrees with grounding at %s", i, op.st.Name(e))
			break
		}
	}
	return nil
}

func (t *paperTrace) metrics() map[string]float64 {
	ops := float64(t.ops)
	tot := layerTotals(t.tr.spans, anySpan)
	var onRoute time.Duration
	for _, l := range paperLayers {
		onRoute += tot[l]
	}
	hits, misses := t.pc.Stats()
	m := zeroLayers()
	m["decompose.ms_per_op"] = ms(tot["decompose"]) / ops
	m["decompose.width_max"] = float64(t.widthMax)
	m["tree.ms_per_op"] = ms(tot["tree.normalize"]+tot["tree.build_td"]) / ops
	m["tree.td_facts_per_elem"] = float64(t.tdFacts) / float64(t.elems)
	m["core.compile_ms_per_op"] = ms(tot["core.compile"]) / ops
	m["core.compile_failures"] = float64(t.compileFailures)
	m["core.program_cache_hit_share"] = ratio(float64(hits), float64(hits+misses))
	m["core.finish_ms_per_op"] = ms(tot["core.finish"]) / ops
	m["datalog.ground_ms_per_op"] = ms(tot["datalog.ground"]) / ops
	m["datalog.ground_alloc_mb_per_op"] = float64(t.groundAlloc) / ops / (1 << 20)
	m["datalog.ground_atoms_per_elem"] = ratio(float64(t.atoms), float64(t.groundElems))
	m["datalog.ground_size_per_elem"] = ratio(float64(t.size), float64(t.groundElems))
	m["datalog.true_atom_share"] = ratio(float64(t.trueAtoms), float64(t.atoms))
	m["datalog.seminaive_ms_per_op"] = ms(tot["datalog.seminaive"]) / ops
	for _, n := range []int{30, 60, 120} {
		m[fmt.Sprintf("datalog.ground_ms_per_elem.n%d", n)] = ratio(ms(t.sizeGround[n]), float64(t.sizeElems[n]))
	}
	m["horn.solve_ms_per_op"] = ms(tot["horn.solve"]) / ops
	m["bench.layer_coverage"] = ratio(float64(onRoute), float64(t.untraced))
	m["bench.trace_overhead_share"] = ratio(float64(t.traced), float64(t.untraced)) - 1
	return m
}
