package main

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"repro/internal/bitset"
	"repro/internal/decompose"
	"repro/internal/domset"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/primality"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/threecol"
	"repro/internal/tree"
	"repro/internal/vcover"
	"repro/internal/wis"
	"repro/internal/workload"
)

// solver-dp: one caller runs the public Section 5 entry points, each on
// a fresh library instance: decomposition, nice normalization and the
// semiring solver, with core and datalog bypassed.

// graphShapes are the partial k-trees of each cycle. k=2 graphs are
// 3-colorable and k=3 graphs almost never are, so threecol decides both
// ways.
var graphShapes = []struct{ k, n int }{
	{2, 1000}, {2, 2000}, {2, 4000}, {3, 1000}, {3, 2000}, {3, 4000},
}

// dropProb is the share of k-tree edges PartialKTree drops.
const dropProb = 0.3

// primalityFDs are the Table 1 schema sizes (treewidth 3), extended.
var primalityFDs = []int{31, 63, 127}

// graphOps are the graph entry points run on every shape, in order; the
// three threecol ops share one graph so their answers cross-check.
var graphOps = []string{"threecol.decide", "threecol.coloring", "threecol.count", "vcover.cover", "domset.optimize", "wis.optimize"}

var solverCycleLen = len(graphShapes)*len(graphOps) + len(primalityFDs)

// solverInputs are one cycle's instances, rebuilt from (seed, cycle).
type solverInputs struct {
	graphs  []*graph.Graph
	weights [][]int // wis vertex weights per graph, 1..4
	schemas []*schema.Schema
	elems   []int // τ-structure size per schema
}

func solverCycleInputs(seed int64, cycle int) (*solverInputs, error) {
	in := &solverInputs{}
	for s, shape := range graphShapes {
		rng := rand.New(rand.NewSource(opSeed(seed, cycle*solverCycleLen+s)))
		g := graph.PartialKTree(shape.n, shape.k, dropProb, rng)
		w := make([]int, g.N())
		for v := range w {
			w[v] = 1 + rng.Intn(4)
		}
		in.graphs = append(in.graphs, g)
		in.weights = append(in.weights, w)
	}
	for j, fds := range primalityFDs {
		rng := rand.New(rand.NewSource(opSeed(seed, cycle*solverCycleLen+len(graphShapes)+j)))
		s, _, err := workload.BalancedSchema(fds, rng)
		if err != nil {
			return nil, fmt.Errorf("balanced schema %d: %w", fds, err)
		}
		in.schemas = append(in.schemas, s)
		in.elems = append(in.elems, s.ToStructure().Size())
	}
	return in, nil
}

// solverSlot names op slot j of a cycle: a graph op on a shape, or a
// primality op (shape -1, schema index in prim).
func solverSlot(j int) (op string, shape, prim int) {
	if j < len(graphShapes)*len(graphOps) {
		return graphOps[j%len(graphOps)], j / len(graphOps), -1
	}
	return "primality.enumerate", -1, j - len(graphShapes)*len(graphOps)
}

// solverAnswer is one op's answer, kept for the checks.
type solverAnswer struct {
	ok     bool // decide, or whether coloring found one
	colors []int
	count  *big.Int
	set    []int
	primes *bitset.Set
	inst   *primality.Instance
}

// runSolverOp runs op slot j of a cycle through its public entry point.
func runSolverOp(ctx context.Context, in *solverInputs, j int) (solverAnswer, int, error) {
	op, shape, prim := solverSlot(j)
	var a solverAnswer
	if shape < 0 {
		inst, err := primality.NewInstanceCtx(ctx, in.schemas[prim])
		if err != nil {
			return a, in.elems[prim], err
		}
		a.inst = inst
		a.primes, err = inst.EnumerateCtx(ctx)
		return a, in.elems[prim], err
	}
	g := in.graphs[shape]
	var err error
	switch op {
	case "threecol.decide", "threecol.coloring":
		var inst *threecol.Instance
		inst, err = threecol.NewInstanceCtx(ctx, g)
		if err != nil {
			break
		}
		if op == "threecol.decide" {
			a.ok, err = inst.DecideCtx(ctx)
		} else {
			a.colors, a.ok, err = inst.ColoringCtx(ctx)
		}
	case "threecol.count":
		a.count, err = threecol.CountColoringsBig(g, 3)
	case "vcover.cover":
		a.set, err = vcover.CoverSet(g)
	case "domset.optimize":
		a.set, err = domset.DominatingSet(g)
	case "wis.optimize":
		a.set, err = wis.MaxWeightSet(g, in.weights[shape])
	}
	return a, g.N(), err
}

func runSolverDP(ctx context.Context, cfg config) (*report, error) {
	ref := newHostRef()
	setups, first, err := medianSetup(setupReps, func() (*solverInputs, error) { return solverCycleInputs(cfg.seed, 0) })
	if err != nil {
		return nil, err
	}
	var trace *solverTrace
	if cfg.trace {
		trace = newSolverTrace()
	}
	rep := &report{}
	var samples []sample
	var busy time.Duration
	var allocBytes uint64
	start := time.Now()
	cycles := 0
	for cycle := 0; ; cycle++ {
		in := first
		if cycle > 0 {
			if in, err = solverCycleInputs(cfg.seed, cycle); err != nil {
				return nil, err
			}
		}
		answers := make([]solverAnswer, solverCycleLen)
		for j := 0; j < solverCycleLen; j++ {
			if !cfg.trace {
				// A traced run reports no end-to-end times, and
				// the reference between ops would leave the
				// untraced op with colder caches than its replay.
				ref.sample()
			}
			a0 := totalAlloc()
			t0 := time.Now()
			a, n, err := runSolverOp(ctx, in, j)
			ns := time.Since(t0)
			allocBytes += totalAlloc() - a0
			busy += ns
			op, _, _ := solverSlot(j)
			samples = append(samples, sample{class: op, n: n, ns: int64(ns), ok: err == nil})
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.wrongf("cycle %d op %d (%s): %v", cycle, j, op, err)
			}
			answers[j] = a
			if trace != nil {
				if err := trace.replayOp(ctx, cycle, j, in, samples[len(samples)-1]); err != nil {
					return nil, err
				}
			}
		}
		checkSolverCycle(rep, cycle, in, answers)
		cycles++
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
	rep.info = map[string]any{
		"raw":           raw,
		"ref_ms":        ref.medianMS(),
		"failed_share":  float64(rep.failed) / float64(rep.attempted),
		"cycles":        cycles,
		"completed_ops": rep.attempted - rep.failed,
		"setup_s_each":  setups,
	}
	if trace != nil {
		rep.layers, rep.spans = trace.metrics(), trace.tr.spans
	}
	return rep, nil
}

// checkSolverCycle checks one cycle's answers outside the timed region:
// colorings proper, decide agreeing with the witness and with count > 0,
// covers, dominating sets and independent sets valid and inclusion-
// minimal (maximal for independent sets, whose weights are positive),
// and sampled primality answers confirmed by a key witness.
func checkSolverCycle(rep *report, cycle int, in *solverInputs, answers []solverAnswer) {
	for s, g := range in.graphs {
		base := s * len(graphOps)
		decide, coloring, count := answers[base], answers[base+1], answers[base+2]
		if count.count == nil {
			continue // the op failed and is already reported
		}
		if decide.ok != coloring.ok || decide.ok != (count.count.Sign() > 0) {
			rep.wrongf("cycle %d shape %d: decide %v, coloring found %v, count %v", cycle, s, decide.ok, coloring.ok, count.count)
		}
		if coloring.ok {
			if msg := checkColoring(g, coloring.colors); msg != "" {
				rep.wrongf("cycle %d shape %d: coloring: %s", cycle, s, msg)
			}
		}
		if msg := checkCover(g, answers[base+3].set); msg != "" {
			rep.wrongf("cycle %d shape %d: vertex cover: %s", cycle, s, msg)
		}
		if msg := checkDominating(g, answers[base+4].set); msg != "" {
			rep.wrongf("cycle %d shape %d: dominating set: %s", cycle, s, msg)
		}
		if msg := checkIndependent(g, answers[base+5].set); msg != "" {
			rep.wrongf("cycle %d shape %d: independent set: %s", cycle, s, msg)
		}
	}
	for p, sch := range in.schemas {
		a := answers[len(graphShapes)*len(graphOps)+p]
		if a.primes == nil {
			continue
		}
		rng := rand.New(rand.NewSource(int64(cycle*len(primalityFDs) + p)))
		for t := 0; t < 3; t++ {
			attr := rng.Intn(sch.NumAttrs())
			key, ok, err := a.inst.KeyWitness(attr)
			if err != nil {
				rep.wrongf("cycle %d schema %d: key witness for %s: %v", cycle, p, sch.AttrName(attr), err)
				continue
			}
			if ok != a.primes.Has(attr) {
				rep.wrongf("cycle %d schema %d: Enumerate says %s prime=%v, key witness says %v", cycle, p, sch.AttrName(attr), a.primes.Has(attr), ok)
				continue
			}
			if ok {
				k := bitset.New(sch.NumAttrs())
				for _, x := range key {
					k.Add(x)
				}
				if !k.Has(attr) || !sch.IsKey(k) {
					rep.wrongf("cycle %d schema %d: witness for %s is not a key containing it", cycle, p, sch.AttrName(attr))
				}
			}
		}
	}
}

func inSet(n int, set []int) []bool {
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	return in
}

func checkColoring(g *graph.Graph, colors []int) string {
	if len(colors) != g.N() {
		return fmt.Sprintf("%d colors for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 || c > 2 {
			return fmt.Sprintf("vertex %d has color %d", v, c)
		}
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return fmt.Sprintf("edge %d-%d is monochrome", e[0], e[1])
		}
	}
	return ""
}

func checkCover(g *graph.Graph, cover []int) string {
	in := inSet(g.N(), cover)
	for _, e := range g.Edges() {
		if !in[e[0]] && !in[e[1]] {
			return fmt.Sprintf("edge %d-%d uncovered", e[0], e[1])
		}
	}
	for _, v := range cover {
		if g.Neighbors(v).Len() == countIn(g, v, in) {
			return fmt.Sprintf("vertex %d is redundant", v)
		}
	}
	return ""
}

func checkDominating(g *graph.Graph, set []int) string {
	in := inSet(g.N(), set)
	dominators := make([]int, g.N()) // members of the set in each closed neighborhood
	for v := 0; v < g.N(); v++ {
		dominators[v] = countIn(g, v, in)
		if in[v] {
			dominators[v]++
		}
		if dominators[v] == 0 {
			return fmt.Sprintf("vertex %d undominated", v)
		}
	}
	for _, v := range set {
		private := dominators[v] == 1
		for _, u := range g.Neighbors(v).Elems() {
			private = private || dominators[u] == 1
		}
		if !private {
			return fmt.Sprintf("vertex %d is redundant", v)
		}
	}
	return ""
}

func checkIndependent(g *graph.Graph, set []int) string {
	in := inSet(g.N(), set)
	for _, e := range g.Edges() {
		if in[e[0]] && in[e[1]] {
			return fmt.Sprintf("edge %d-%d inside the set", e[0], e[1])
		}
	}
	for v := 0; v < g.N(); v++ {
		if !in[v] && countIn(g, v, in) == 0 {
			return fmt.Sprintf("vertex %d could be added", v)
		}
	}
	return ""
}

func countIn(g *graph.Graph, v int, in []bool) int {
	c := 0
	for _, u := range g.Neighbors(v).Elems() {
		if in[u] {
			c++
		}
	}
	return c
}

// solverLayers are the on-route layers bench.layer_coverage sums.
var solverLayers = []string{"decompose", "tree.nice", "solver.up", "solver.walk", "primality.instance", "primality.enumerate"}

// solverTrace accumulates the traced replay. Each untraced op is
// replayed right after it runs, so both see the same machine state.
type solverTrace struct {
	tr                    *tracer
	untraced, traced      time.Duration
	ops                   int
	widthMax              int
	niceNodes, graphElems int
	entries               int64
	sizeDecomp            map[int]time.Duration
	sizeElems             map[int]int
}

func newSolverTrace() *solverTrace {
	return &solverTrace{tr: newTracer(time.Now()), sizeDecomp: map[int]time.Duration{}, sizeElems: map[int]int{}}
}

// replayOp re-runs op slot j of a cycle through the public functions
// its entry point calls, with a span around each: the graph decomposition,
// nice normalization, the solver's bottom-up pass, and the witness
// walk. Solver calls run under a Budget whose only cap is out of reach,
// so its receipt counts the DP table entries.
func (t *solverTrace) replayOp(ctx context.Context, cycle, j int, in *solverInputs, s sample) error {
	tr := t.tr
	i := cycle*solverCycleLen + j
	t.untraced += time.Duration(s.ns)
	t.ops++
	op, shape, prim := solverSlot(j)
	b := &stage.Budget{MaxTableEntries: math.MaxInt64 / 4}
	bctx := stage.WithBudget(ctx, b)
	root := tr.begin(i, "op", -1)
	if shape < 0 {
		var inst *primality.Instance
		if err := tr.do(i, root, "primality.instance", func() (err error) {
			inst, err = primality.NewInstanceCtx(ctx, in.schemas[prim])
			return err
		}); err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		if err := tr.do(i, root, "primality.enumerate", func() error {
			_, err := inst.EnumerateCtx(bctx)
			return err
		}); err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		tr.end(root)
		t.traced += tr.spans[root].dur()
		return nil
	}
	g := in.graphs[shape]
	var d, nice *tree.Decomposition
	var err error
	di := tr.begin(i, "decompose", root)
	if op == "threecol.decide" || op == "threecol.coloring" {
		d, err = decompose.GraphCtx(ctx, g, decompose.MinFill)
		if err == nil {
			err = d.ValidateGraph(g)
		}
	} else {
		d, err = decompose.Graph(g, decompose.MinFill)
	}
	tr.end(di)
	if err != nil {
		return fmt.Errorf("replay op %d: decompose: %w", i, err)
	}
	t.widthMax = max(t.widthMax, d.Width())
	if err := tr.do(i, root, "tree.nice", func() (err error) {
		nice, err = tree.NormalizeNiceCtx(ctx, d, tree.NiceOptions{})
		return err
	}); err != nil {
		return fmt.Errorf("replay op %d: nice: %w", i, err)
	}
	if err := solverCalls(bctx, tr, i, root, op, g, nice, in.weights[shape]); err != nil {
		return fmt.Errorf("replay op %d (%s): %w", i, op, err)
	}
	tr.end(root)
	t.traced += tr.spans[root].dur()
	_, _, te := b.Used()
	t.entries += te
	t.niceNodes += nice.Len()
	t.graphElems += g.N()
	t.sizeDecomp[g.N()] += tr.spans[di].dur()
	t.sizeElems[g.N()] += g.N()
	return nil
}

func (t *solverTrace) metrics() map[string]float64 {
	ops := float64(t.ops)
	tot := layerTotals(t.tr.spans, anySpan)
	var onRoute time.Duration
	for _, l := range solverLayers {
		onRoute += tot[l]
	}
	m := zeroLayers()
	m["decompose.ms_per_op"] = ms(tot["decompose"]) / ops
	m["decompose.width_max"] = float64(t.widthMax)
	for _, shape := range graphShapes[:3] {
		m[fmt.Sprintf("decompose.ms_per_elem.n%d", shape.n)] = ratio(ms(t.sizeDecomp[shape.n]), float64(t.sizeElems[shape.n]))
	}
	m["tree.nice_ms_per_op"] = ms(tot["tree.nice"]) / ops
	m["tree.nice_nodes_per_elem"] = ratio(float64(t.niceNodes), float64(t.graphElems))
	m["solver.up_ms_per_op"] = ms(tot["solver.up"]) / ops
	m["solver.walk_ms_per_op"] = ms(tot["solver.walk"]) / ops
	m["solver.table_entries_per_node"] = ratio(float64(t.entries), float64(t.niceNodes))
	m["primality.instance_ms_per_op"] = ms(tot["primality.instance"]) / ops
	m["primality.enumerate_ms_per_op"] = ms(tot["primality.enumerate"]) / ops
	m["bench.layer_coverage"] = ratio(float64(onRoute), float64(t.untraced))
	m["bench.trace_overhead_share"] = ratio(float64(t.traced), float64(t.untraced)) - 1
	return m
}

// solverCalls is the solver part of one graph op: the bottom-up pass
// (with the root scan of the solver front-end the entry point uses) as
// solver.up, then, for the witness-producing ops, bag lookup and the
// derivation walk as solver.walk.
func solverCalls(ctx context.Context, tr *tracer, i, root int, op string, g *graph.Graph, nice *tree.Decomposition, weights []int) error {
	var der interface {
		Walk(func(node int, s uint64) error) error
	}
	err := tr.do(i, root, "solver.up", func() error {
		switch op {
		case "threecol.decide":
			_, err := solver.Decide(ctx, nice, threecol.Problem(g, 3))
			return err
		case "threecol.count":
			_, err := solver.Count(ctx, nice, threecol.Problem(g, 3))
			return err
		case "threecol.coloring":
			w, err := solver.Witness(ctx, nice, threecol.Problem(g, 3))
			if w != nil {
				der = w
			}
			return err
		}
		var p solver.Problem[uint64]
		switch op {
		case "vcover.cover":
			p = vcover.Problem(g)
		case "domset.optimize":
			p = domset.Problem(g)
		default:
			var err error
			if p, err = wis.Problem(g, weights); err != nil {
				return err
			}
		}
		o, err := solver.Optimize(ctx, nice, p)
		if o != nil {
			der = o
		}
		return err
	})
	if err != nil || der == nil {
		return err
	}
	return tr.do(i, root, "solver.walk", func() error {
		bags, err := dp.Bags(nice)
		if err != nil {
			return err
		}
		marks := make([]uint64, g.N())
		return der.Walk(func(v int, s uint64) error {
			for p, e := range bags[v] {
				marks[e] = s >> (2 * uint(p)) & 3
			}
			return nil
		})
	})
}
