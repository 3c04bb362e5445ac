package datalog

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// maxWorkers caps the goroutine fan-out of parallel stratum evaluation.
// Results are deterministic at every setting (task buffers are merged in
// task order); 1 forces fully serial evaluation.
var maxWorkers atomic.Int32

func init() { maxWorkers.Store(int32(runtime.GOMAXPROCS(0))) }

// SetMaxWorkers sets the worker cap for parallel stratum evaluation and
// returns the previous value. Values below 1 are treated as 1 (serial).
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int32(n)))
}

// Eval computes the least fixpoint of the program over the extensional
// database by stratified semi-naive bottom-up evaluation and returns a
// database containing the extensional and all derived intensional facts.
// The input database is not modified.
//
// The program must be stratifiable: no predicate may depend negatively on
// itself through a cycle. Negation over purely extensional predicates —
// all the paper's constructions need (the programs of Theorem 4.5 negate
// only τ-atoms) — is always stratified.
//
// Within each stratum the rule×delta-occurrence evaluations of a round
// run on a worker pool; each task buffers its derivations, and buffers
// are merged through the dedup sets in task order, so the result (and
// even the tuple insertion order) is deterministic and independent of the
// worker count.
func Eval(p *Program, edb *DB) (*DB, error) {
	return EvalCtx(context.Background(), p, edb)
}

// EvalCtx is Eval with cancellation support: the stratum loop, each
// semi-naive round and every rule's join plan (every 1024 operator
// steps) check ctx, so evaluation of a large program stops promptly
// after cancellation or a deadline. A context error is returned wrapped
// in a *stage.Error tagged stage.Eval.
func EvalCtx(ctx context.Context, p *Program, edb *DB) (*DB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	intens := p.IntensionalPreds()
	for pred := range intens {
		if IsBuiltin(pred) {
			return nil, fmt.Errorf("datalog: builtin %s cannot be intensional", pred)
		}
	}
	strata, err := stratify(p)
	if err != nil {
		return nil, err
	}
	cfg := evalConfig{
		budget:    stage.BudgetFrom(ctx),
		collector: statsCollectorFrom(ctx),
	}
	db := edb.Clone()
	// Intern every constant of the program up front: rule compilation then
	// only reads the interning table, which keeps parallel tasks free of
	// writes to shared DB state.
	internProgramConsts(p, db)
	byHead := headIndex(p)
	for _, stratum := range strata {
		if err := ctx.Err(); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		inStratum := map[string]bool{}
		for _, pred := range stratum {
			inStratum[pred] = true
		}
		if err := evalStratum(ctx, stratumRules(p, byHead, stratum), inStratum, db, cfg); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// evalConfig is the per-run evaluation setup, captured once at EvalCtx
// entry: the stream-tuples budget and the stats collector.
type evalConfig struct {
	budget    *stage.Budget
	collector *StatsCollector
}

func internProgramConsts(p *Program, db *DB) {
	for _, r := range p.Rules {
		for _, t := range r.Head.Args {
			if !t.IsVar() {
				db.Intern(t.Const)
			}
		}
		for _, a := range r.Body {
			for _, t := range a.Args {
				if !t.IsVar() {
					db.Intern(t.Const)
				}
			}
		}
	}
}

// headIndex maps every head predicate to the ordered indices of its
// rules. Compiled MSO programs have thousands of predicates and (mostly)
// one stratum per predicate, so the stratum loops must gather their
// rules through this index — rescanning p.Rules per stratum is
// quadratic in the program and used to dominate evaluation wholesale.
func headIndex(p *Program) map[string][]int {
	byHead := make(map[string][]int)
	for i, r := range p.Rules {
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], i)
	}
	return byHead
}

// stratumRules returns the stratum's rules in program order — the same
// slice the old full scan produced, so task order (and with it the
// deterministic tuple insertion order) is unchanged.
func stratumRules(p *Program, byHead map[string][]int, stratum []string) []Rule {
	var idx []int
	for _, pred := range stratum {
		idx = append(idx, byHead[pred]...)
	}
	sort.Ints(idx)
	rules := make([]Rule, len(idx))
	for i, ri := range idx {
		rules[i] = p.Rules[ri]
	}
	return rules
}

// stratify orders the intensional predicates into strata such that every
// negative dependency points strictly downward. Returns groups of
// predicates in evaluation order.
func stratify(p *Program) ([][]string, error) {
	intens := p.IntensionalPreds()
	preds := make([]string, 0, len(intens))
	for pr := range intens {
		preds = append(preds, pr)
	}
	sort.Strings(preds)
	index := map[string]int{}
	for i, pr := range preds {
		index[pr] = i
	}
	n := len(preds)
	type edge struct {
		to  int
		neg bool
	}
	adj := make([][]edge, n)
	for _, r := range p.Rules {
		h := index[r.Head.Pred]
		for _, a := range r.Body {
			if bi, ok := index[a.Pred]; ok {
				adj[h] = append(adj[h], edge{to: bi, neg: a.Negated})
			}
		}
	}
	// Tarjan SCC (iterative).
	const unvisited = -1
	low := make([]int, n)
	num := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range num {
		num[i] = unvisited
		comp[i] = -1
	}
	var stack, callStack []int
	counter, nComp := 0, 0
	for s := 0; s < n; s++ {
		if num[s] != unvisited {
			continue
		}
		callStack = append(callStack, s)
		iter := map[int]int{}
		for len(callStack) > 0 {
			v := callStack[len(callStack)-1]
			if num[v] == unvisited {
				num[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for iter[v] < len(adj[v]) {
				e := adj[v][iter[v]]
				iter[v]++
				if num[e.to] == unvisited {
					callStack = append(callStack, e.to)
					advanced = true
					break
				}
				if onStack[e.to] && num[e.to] < low[v] {
					low[v] = num[e.to]
				}
			}
			if advanced {
				continue
			}
			if low[v] == num[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	// Negative edges within a component are unstratifiable.
	for v := 0; v < n; v++ {
		for _, e := range adj[v] {
			if e.neg && comp[v] == comp[e.to] {
				return nil, fmt.Errorf("datalog: program not stratified: %s depends negatively on %s within a cycle", preds[v], preds[e.to])
			}
		}
	}
	// Tarjan numbers components in reverse topological order of the
	// dependency graph (head → body), so component 0 has no dependencies:
	// evaluate components in increasing order.
	groups := make([][]string, nComp)
	for v, c := range comp {
		groups[c] = append(groups[c], preds[v])
	}
	return groups, nil
}

// stratumTask is one unit of a round's work: a compiled rule evaluated
// either in full (occ == -1, the first pass) or with one body occurrence
// of a stratum predicate restricted to the previous round's delta. Each
// (rule, occ) pair keeps its own compiled instance across rounds, so the
// scratch buffers warm up once and tasks never share mutable state.
type stratumTask struct {
	prog *cRule
	occ  int
}

// parallelThreshold is the minimum number of pending input tuples before
// a round fans its tasks out to goroutines; below it the per-goroutine
// overhead outweighs the work.
const parallelThreshold = 128

// evalStratum runs semi-naive iteration for one stratum's rules.
func evalStratum(ctx context.Context, rules []Rule, inStratum map[string]bool, db *DB, cfg evalConfig) error {
	// Compiled instances per rule, indexed by occ+1 (slot 0 is the full
	// first-pass evaluation). Filled lazily; compilation — including the
	// one-time streaming plan build — is serial, so the parallel phase
	// only ever reads the cache.
	compiled := make([][]*cRule, len(rules))
	instance := func(ri, occ int) (*cRule, error) {
		if compiled[ri] == nil {
			compiled[ri] = make([]*cRule, len(rules[ri].Body)+1)
		}
		if c := compiled[ri][occ+1]; c != nil {
			return c, nil
		}
		c, err := compilePlanned(rules[ri], db, occ, cfg)
		if err != nil {
			return nil, err
		}
		c.ctx = ctx
		compiled[ri][occ+1] = c
		return c, nil
	}

	// First pass: evaluate every rule in full.
	tasks := make([]stratumTask, len(rules))
	for i := range rules {
		c, err := instance(i, -1)
		if err != nil {
			return err
		}
		tasks[i] = stratumTask{prog: c, occ: -1}
	}
	delta, err := runStratumRound(ctx, tasks, nil, db, db.NumFacts())
	if err != nil {
		return err
	}

	// Iterate: each recursive rule is re-evaluated once per occurrence of
	// a stratum predicate in its body, with that occurrence restricted to
	// the delta of the previous round.
	for {
		total := 0
		for _, nr := range delta {
			total += len(nr.tuples)
		}
		if total == 0 {
			return nil
		}
		tasks = tasks[:0]
		for ri, r := range rules {
			for occ, a := range r.Body {
				if a.Negated || !inStratum[a.Pred] {
					continue
				}
				if d := delta[a.Pred]; d == nil || len(d.tuples) == 0 {
					continue
				}
				c, err := instance(ri, occ)
				if err != nil {
					return err
				}
				tasks = append(tasks, stratumTask{prog: c, occ: occ})
			}
		}
		if len(tasks) == 0 {
			return nil
		}
		delta, err = runStratumRound(ctx, tasks, delta, db, total)
		if err != nil {
			return err
		}
	}
}

// runStratumRound evaluates one round's tasks and returns the delta of
// genuinely new facts. Small rounds run serially with derivations
// inserted as they are found; large rounds fan the tasks out to a worker
// pool, with each task buffering its derivations and the buffers merged
// through the dedup tables in task order afterwards — so the derived
// fact set is identical, and for a fixed worker setting even the tuple
// insertion order is deterministic.
//
// Each task evaluates one rule, so everything it emits belongs to the
// rule's head predicate; emitted tuples are freshly allocated and the
// database adopts them without copying, sharing new ones with the
// (dedup-free) delta relation rather than re-hashing them into it.
func runStratumRound(ctx context.Context, tasks []stratumTask, delta map[string]*relation, db *DB, workSize int) (map[string]*relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	newDelta := map[string]*relation{}
	sink := func(t stratumTask) (*relation, *relation) {
		pred := t.prog.headPred
		nd, ok := newDelta[pred]
		if !ok {
			nd = newDeltaRelation(t.prog.headArity)
			newDelta[pred] = nd
		}
		return db.rel(pred, t.prog.headArity), nd
	}
	workers := int(maxWorkers.Load())
	if workers > len(tasks) {
		workers = len(tasks)
	}
	// evalTask wraps one rule evaluation with panic containment and the
	// worker-loop fault-injection point: a handler or join panic becomes
	// a stage-tagged *stage.PanicError instead of killing the worker
	// goroutine (and with it the process).
	evalTask := func(t stratumTask, emit func([]int)) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = stage.Wrap(stage.Eval, stage.NewPanicError(r))
			}
		}()
		if err := faultinject.Check("datalog.stratum-task"); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
		return t.prog.eval(delta, t.occ, emit)
	}
	if workers <= 1 || workSize < parallelThreshold {
		for _, t := range tasks {
			rel, nd := sink(t)
			// Streamed rows are reused operator buffers: the relation
			// copies only genuinely new tuples, so the serial path holds
			// O(1) rows in flight per rule.
			err := evalTask(t, func(row []int) {
				if stored, added := rel.insertRow(row); added {
					nd.appendShared(stored)
				}
			})
			if err != nil {
				return nil, err
			}
		}
		return newDelta, nil
	}
	// Parallel round: each task buffers its derivations privately and the
	// buffers merge in task order. Tasks pre-filter against the (frozen,
	// read-only) head relation so already-known facts are never buffered,
	// and the buffers themselves are reused across rounds.
	headRels := make([]*relation, len(tasks))
	bufs := make([][][]int, len(tasks))
	for i, t := range tasks {
		headRels[i] = db.rel(t.prog.headPred, t.prog.headArity)
		bufs[i] = t.prog.outBuf[:0]
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tasks); i += workers {
				i := i
				t, rel := tasks[i], headRels[i]
				errs[i] = evalTask(t, func(row []int) {
					if !rel.has(row) {
						bufs[i] = append(bufs[i], t.prog.arenaCopy(row))
					}
				})
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pending := int64(0)
	for _, buf := range bufs {
		pending += int64(len(buf))
	}
	notePeakBuffered(tasks[0].prog.collector, pending)
	for i, buf := range bufs {
		rel, nd := sink(tasks[i])
		for _, tuple := range buf {
			if rel.insertOwned(tuple) {
				nd.appendShared(tuple)
			}
		}
		tasks[i].prog.outBuf = buf[:0]
	}
	return newDelta, nil
}

// cArg is a compiled atom argument: a variable slot (slot ≥ 0) or an
// interned constant (slot < 0, constant ID in c).
type cArg struct {
	slot int
	c    int
}

// cAtom is a compiled body atom: predicate classification resolved once,
// arguments mapped to slots/IDs, and reusable per-atom scratch buffers so
// the join recursion allocates nothing per tuple. rel is transient: it is
// re-resolved at the start of every eval call.
type cAtom struct {
	pred     string
	negated  bool
	builtin  bool
	args     []cArg
	rel      *relation // resolved per eval call (nil: empty relation)
	pat      []int     // pattern buffer
	ground   []int     // ground-args buffer
	matchBuf [][]int   // match result buffer
}

// cRule is a rule compiled for repeated evaluation: variables mapped to
// integer slots, atoms to cAtoms, its streaming plan, plus the scratch
// state of the backtracking matcher (step) that DRed's single-witness
// check runs. A cRule instance is single-threaded — evalStratum keeps
// one per (rule, delta-occurrence) task so buffers warm up across rounds
// without any sharing between parallel tasks.
type cRule struct {
	src       Rule
	db        *DB
	ctx       context.Context // nil: never cancelled
	tick      uint            // cancellation-check counter for step
	headPred  string
	headArity int
	head      []cArg
	body      []cAtom
	binding   []int  // slot → constant ID, -1 unbound
	processed []bool // body atoms consumed on the current recursion path
	deltaOcc  int
	emit      func([]int)
	stopped   bool // set by an emit callback to abandon the enumeration
	// Head tuples are carved from arena chunks: they are handed to emit
	// (and ultimately adopted by the database), so allocating them one
	// slice at a time would dominate GC work on derivation-heavy programs.
	arena []int
	// Streaming-engine state: the pushdown-analyzed plan (built once per
	// instance, reused every round), budget/stats plumbing, and the
	// parallel-round output buffer reused across rounds. An unmetered
	// plan (the grounder's) reports to neither the stats counters nor
	// the stream-tuples budget.
	plan      *rulePlan
	budget    *stage.Budget
	collector *StatsCollector
	unmetered bool
	outBuf    [][]int
}

// compileRule maps the rule's variables to integer slots and its atom
// arguments to slot/constant descriptors, so the per-tuple inner loops of
// eval touch no maps. All program constants must already be interned when
// compilation can race with other DB readers (Eval guarantees this by
// interning up front and compiling serially).
func compileRule(r Rule, db *DB) *cRule {
	slots := map[string]int{}
	compileArgs := func(args []Term) []cArg {
		out := make([]cArg, len(args))
		for i, t := range args {
			if t.IsVar() {
				s, ok := slots[t.Var]
				if !ok {
					s = len(slots)
					slots[t.Var] = s
				}
				out[i] = cArg{slot: s}
			} else {
				out[i] = cArg{slot: -1, c: db.Intern(t.Const)}
			}
		}
		return out
	}
	body := make([]cAtom, len(r.Body))
	for i, a := range r.Body {
		args := compileArgs(a.Args)
		body[i] = cAtom{
			pred:    a.Pred,
			negated: a.Negated,
			builtin: IsBuiltin(a.Pred),
			args:    args,
			pat:     make([]int, len(args)),
			ground:  make([]int, len(args)),
		}
	}
	head := compileArgs(r.Head.Args)
	binding := make([]int, len(slots))
	for i := range binding {
		binding[i] = -1
	}
	return &cRule{
		src:       r,
		db:        db,
		headPred:  r.Head.Pred,
		headArity: len(r.Head.Args),
		head:      head,
		body:      body,
		binding:   binding,
		processed: make([]bool, len(r.Body)),
	}
}

// compilePlanned compiles the rule with cfg's budget and stats plumbing
// and builds its streaming plan for the given delta occurrence (-1: the
// full first-pass evaluation).
func compilePlanned(r Rule, db *DB, deltaOcc int, cfg evalConfig) (*cRule, error) {
	c := compileRule(r, db)
	c.budget, c.collector = cfg.budget, cfg.collector
	plan, err := buildPlan(c, deltaOcc)
	if err != nil {
		return nil, err
	}
	c.plan = plan
	return c, nil
}

// bind resolves every body atom's relation for one evaluation: the
// delta occurrence reads delta[pred], every other atom the database.
func (c *cRule) bind(delta map[string]*relation, deltaOcc int) {
	c.deltaOcc = deltaOcc
	for i := range c.body {
		a := &c.body[i]
		if a.builtin {
			continue
		}
		if i == deltaOcc {
			a.rel = delta[a.pred]
		} else {
			a.rel = c.db.rels[a.pred]
		}
	}
}

// arenaCopy copies a borrowed row into an arena-carved tuple the caller
// may retain (parallel tasks buffering new derivations).
func (c *cRule) arenaCopy(row []int) []int {
	n := len(row)
	if len(c.arena) < n {
		c.arena = make([]int, 4096+n)
	}
	tuple := c.arena[:n:n]
	c.arena = c.arena[n:]
	copy(tuple, row)
	return tuple
}

func (c *cRule) emitHead() {
	n := len(c.head)
	if len(c.arena) < n {
		c.arena = make([]int, 4096+n)
	}
	tuple := c.arena[:n:n]
	c.arena = c.arena[n:]
	for i, a := range c.head {
		if a.slot >= 0 {
			tuple[i] = c.binding[a.slot]
		} else {
			tuple[i] = a.c
		}
	}
	c.emit(tuple)
}

func (c *cRule) atomBound(a *cAtom) bool {
	for _, ar := range a.args {
		if ar.slot >= 0 && c.binding[ar.slot] < 0 {
			return false
		}
	}
	return true
}

func (c *cRule) groundArgs(a *cAtom) []int {
	for i, ar := range a.args {
		if ar.slot >= 0 {
			a.ground[i] = c.binding[ar.slot]
		} else {
			a.ground[i] = ar.c
		}
	}
	return a.ground
}

// step is the backtracking matcher: it extends the current partial
// assignment by one body atom and calls c.emit once per complete one.
// DRed's single-witness check (derives) runs on it, and so does the
// naive reference evaluator the tests compare the engine against. Every
// 1024 extension steps it polls the context, so even a single huge join
// stops promptly after cancellation.
func (c *cRule) step(done int) error {
	if c.stopped {
		return nil
	}
	if c.tick++; c.tick&1023 == 0 && c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
	}
	if done == len(c.body) {
		c.emitHead()
		return nil
	}
	// Prefer any fully bound negated or builtin atom (cheap filters).
	for i := range c.body {
		a := &c.body[i]
		if c.processed[i] || (!a.negated && !a.builtin) || !c.atomBound(a) {
			continue
		}
		args := c.groundArgs(a)
		var holds bool
		if a.builtin {
			names := make([]string, len(args))
			for j, id := range args {
				names[j] = c.db.ConstName(id)
			}
			var err error
			holds, err = callBuiltin(a.pred, names)
			if err != nil {
				return err
			}
		} else {
			holds = a.rel != nil && a.rel.has(args)
		}
		if a.negated {
			holds = !holds
		}
		if !holds {
			return nil
		}
		c.processed[i] = true
		err := c.step(done + 1)
		c.processed[i] = false
		return err
	}
	// Otherwise take the delta occurrence while it is still pending — its
	// relation is the round's wavefront (typically a handful of tuples
	// whose constants bind most of the rule), so starting there turns the
	// remaining enumeration into indexed lookups; the streaming planner
	// applies the same heuristic in buildPlan. Then the first unprocessed
	// positive relational atom in body order.
	pick := -1
	if d := c.deltaOcc; d >= 0 && !c.processed[d] && !c.body[d].negated && !c.body[d].builtin {
		pick = d
	}
	if pick < 0 {
		for i := range c.body {
			a := &c.body[i]
			if !c.processed[i] && !a.negated && !a.builtin {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return fmt.Errorf("datalog: internal error: unbound atom remains in rule %s", c.src)
	}
	a := &c.body[pick]
	rel := a.rel
	if rel == nil {
		return nil // empty relation: no matches
	}
	anyBound := false
	for j, ar := range a.args {
		if ar.slot >= 0 {
			v := c.binding[ar.slot]
			a.pat[j] = v // -1 when unbound
			anyBound = anyBound || v >= 0
		} else {
			a.pat[j] = ar.c
			anyBound = true
		}
	}
	// All-unbound patterns iterate the relation's storage directly via
	// a local snapshot (stable under concurrent-phase appends) instead
	// of copying tuple headers through match.
	tuples := rel.tuples
	if anyBound {
		a.matchBuf = rel.match(a.pat, a.matchBuf)
		tuples = a.matchBuf
	}
	c.processed[pick] = true
	var boundBuf [16]int
	for _, tuple := range tuples {
		// Unify, handling repeated fresh variables.
		bound := boundBuf[:0]
		ok := true
		for j, ar := range a.args {
			if ar.slot < 0 {
				continue
			}
			if v := c.binding[ar.slot]; v >= 0 {
				if tuple[j] != v {
					ok = false
					break
				}
			} else {
				c.binding[ar.slot] = tuple[j]
				bound = append(bound, ar.slot)
			}
		}
		if ok {
			if err := c.step(done + 1); err != nil {
				return err
			}
		}
		for _, s := range bound {
			c.binding[s] = -1
		}
		if c.stopped {
			break
		}
	}
	c.processed[pick] = false
	return nil
}
