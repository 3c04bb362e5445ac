package datalog_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/mso"
	"repro/internal/structure"
)

var sigTree = structure.MustSignature(
	structure.Predicate{Name: "c", Arity: 1},
	structure.Predicate{Name: "e", Arity: 2})

// coloredTree is a random recursive tree over {e/2, c/1}: vertex i hangs
// off a uniformly random earlier vertex and is colored with probability
// 1/2. Its decompositions have width 1.
func coloredTree(n int, rng *rand.Rand) *structure.Structure {
	st := structure.New(sigTree)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
		if i > 0 {
			st.MustAddTuple("e", rng.Intn(i), i)
		}
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", i)
		}
	}
	return st
}

// sharingPrograms are quasi-guarded programs over the width-1 τ_td
// vocabulary whose rules share extensional bodies in every way the
// grouping must see through, and in ways it must keep apart.
var sharingPrograms = map[string]string{
	"renamed variables": `
a(X) :- bag(V, X, Y), e(X, Y).
b(Z) :- bag(W, Z, U), e(Z, U).
b(Z) :- bag(W, Z, U), e(Z, U), a(Z).
ab(V) :- bag(V, X, Y), e(X, Y), a(X), b(Y).
`,
	"constants": `
a(X) :- bag(V, X, Y), c(X).
p(X, v3) :- bag(V, X, Y), c(X).
p(v1, Y) :- bag(V, X, Y), c(X), a(v0).
q(V) :- bag(V, X, Y), c(X), p(X, v3), a(v2).
k(V) :- bag(V, X, v1).
k(V) :- bag(V, X, v2).
k(V) :- bag(V, v1, Y), not c(Y).
`,
	"repeated variables": `
d(X) :- bag(V, X, X).
d(X) :- bag(V, X, Y).
r(X, X) :- bag(V, X, Y), d(X).
s(V) :- bag(V, X, Y), r(X, X), r(Y, Y).
`,
	"argument orders": `
p(X, Y) :- bag(V, X, Y), e(X, Y).
p(Y, X) :- bag(V, X, Y), e(X, Y).
q(X) :- bag(V, X, Y), e(X, Y), p(Y, X).
q(Y) :- bag(V, X, Y), e(X, Y), p(X, Y), q(X).
`,
	"literal order": `
a(X) :- bag(V, X, Y), e(X, Y), not c(Y).
a(Y) :- e(X, Y), bag(V, X, Y), not c(Y).
b(X) :- not c(Y), bag(V, X, Y), e(X, Y), a(Y).
t(V) :- child1(V1, V), bag(V, X, Y), bag(V1, X1, Y1), a(X1).
t(V) :- bag(V, X, Y), child1(V1, V), bag(V1, X1, Y1), t(V1).
`,
	"empty relations": `
z(X) :- missing(X).
z(X) :- missing(X), bag(V, X, Y).
a(X) :- bag(V, X, Y), missing(X).
b(X) :- bag(V, X, Y), not missing(X), z(X).
`,
	"no variables": `
f(v0).
g :- c(v1).
g :- c(v1), f(v0).
h :- root(s0).
top :- f(v0), g.
top :- leaf(v0), top.
`,
	"builtins": `
a(X) :- bag(V, X, Y), neq(X, Y).
b(Y) :- bag(V, X, Y), neq(X, Y), a(X).
c2(V) :- bag(V, X, Y), lt(X, Y), b(Y).
`,
}

// isolatedRule returns a program holding only rule ri of p, plus one
// never-firing rule per other intensional predicate of ri, so each of
// them stays intensional: the rule grounds exactly as in p, as its own
// one-group program.
func isolatedRule(p *datalog.Program, ri int) *datalog.Program {
	intens := p.IntensionalPreds()
	r := p.Rules[ri]
	out := &datalog.Program{Rules: []datalog.Rule{r}}
	seen := map[string]bool{r.Head.Pred: true}
	for _, a := range r.Body {
		if !intens[a.Pred] || seen[a.Pred] {
			continue
		}
		seen[a.Pred] = true
		args := make([]datalog.Term, len(a.Args))
		for i := range args {
			args[i] = datalog.V("X" + strconv.Itoa(i))
		}
		out.Add(datalog.NewAtom(a.Pred, args...), datalog.NewAtom("never"+strconv.Itoa(len(args)), args...))
	}
	return out
}

// TestGroundSharingDifferential holds the shared-join grounding to a
// reference that grounds every rule as its own one-rule program and
// concatenates the results: the clause multisets must match on seeded
// random τ_td databases. The least model of the ground program must
// also match the semi-naive fixpoint, which shares no code with the
// grounder's atom mapping.
func TestGroundSharingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var edbs []*datalog.DB
	for i := 0; i < 6; i++ {
		edb, w := tdTuple(t, coloredTree(2+rng.Intn(12), rng))
		if w != 1 {
			t.Fatalf("random tree decomposed at width %d", w)
		}
		edbs = append(edbs, edb)
	}
	for name, src := range sharingPrograms {
		t.Run(name, func(t *testing.T) {
			p := datalog.MustParse(src)
			fds := datalog.TDFuncDeps(1)
			clauses := 0
			for i, edb := range edbs {
				g, err := datalog.Ground(p, edb.Clone(), fds)
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for ri := range p.Rules {
					gr, err := datalog.Ground(isolatedRule(p, ri), edb.Clone(), fds)
					if err != nil {
						t.Fatalf("rule %d alone: %v", ri, err)
					}
					want = append(want, datalog.CanonicalClauses(gr)...)
				}
				slices.Sort(want)
				if got := datalog.CanonicalClauses(g); !slices.Equal(got, want) {
					t.Fatalf("edb %d: shared grounding has %d clauses, per-rule reference %d\n got  %q\n want %q", i, len(got), len(want), got, want)
				}
				clauses += len(want)

				qg, err := datalog.EvalQuasiGuarded(p, edb.Clone(), fds)
				if err != nil {
					t.Fatal(err)
				}
				sn, err := datalog.Eval(p, edb)
				if err != nil {
					t.Fatal(err)
				}
				for pred := range p.IntensionalPreds() {
					if got, want := qg.Tuples(pred), sn.Tuples(pred); !sameFacts(got, want) {
						t.Fatalf("edb %d: %s has %d facts grounded, %d semi-naive", i, pred, len(got), len(want))
					}
				}
			}
			if clauses == 0 {
				t.Fatal("no database grounds any clause: the comparison is vacuous")
			}
		})
	}
}

func sameFacts(a, b [][]string) bool {
	key := func(ts [][]string) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = fmt.Sprint(t)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

// compileTreeQuery compiles c(x) at width 1 through core, the program
// the paper route grounds for every tree.
func compileTreeQuery(t testing.TB) *datalog.Program {
	t.Helper()
	compiled, err := core.Compile(sigTree, mso.MustParse("c(x)"), "x", core.Options{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	return compiled.Program
}

// distinctBodies is the number of distinct extensional bodies, up to
// variable renaming, of the core-compiled width-1 c(x) program: the
// most join plans one grounding of it may build.
const distinctBodies = 264

// TestGroundPlanCountAndReuse pins the sharing and the analysis cache:
// one grounding of the compiled c(x) program builds at most one plan
// per distinct extensional body, not one per rule; a second grounding
// of the same program reuses the analysis; and a rule added after a
// grounding takes part in the next one.
func TestGroundPlanCountAndReuse(t *testing.T) {
	p := compileTreeQuery(t)
	if len(p.Rules) <= distinctBodies {
		t.Fatalf("program has %d rules, want more than its %d bodies", len(p.Rules), distinctBodies)
	}
	edb, w := tdTuple(t, coloredTree(40, rand.New(rand.NewSource(3))))
	fds := datalog.TDFuncDeps(w)

	a0, b0 := datalog.GroundAnalyses(), datalog.PlanBuilds()
	g1, err := datalog.Ground(p, edb.Clone(), fds)
	if err != nil {
		t.Fatal(err)
	}
	plans := datalog.PlanBuilds() - b0
	if plans > distinctBodies {
		t.Fatalf("grounding %d rules built %d plans, want ≤ %d", len(p.Rules), plans, distinctBodies)
	}
	t.Logf("%d rules grounded with %d plans", len(p.Rules), plans)
	if got := datalog.GroundAnalyses() - a0; got != 1 {
		t.Fatalf("first grounding built %d analyses, want 1", got)
	}
	g2, err := datalog.Ground(p, edb.Clone(), fds)
	if err != nil {
		t.Fatal(err)
	}
	if got := datalog.GroundAnalyses() - a0; got != 1 {
		t.Fatalf("second grounding rebuilt the analysis (%d builds)", got)
	}
	if !slices.Equal(datalog.CanonicalClauses(g1), datalog.CanonicalClauses(g2)) {
		t.Fatal("regrounding with the cached analysis changed the clauses")
	}

	// Add invalidates the cache: the new rule must be grounded.
	small := datalog.MustParse(datalog.TDProgramSrc)
	chain := datalog.ChainTD(5)
	before, err := datalog.Ground(small, chain.Clone(), datalog.TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	small.Add(datalog.NewAtom("marked", datalog.V("V")), datalog.NewAtom("leaf", datalog.V("V")), datalog.NewAtom("theta0", datalog.V("V")))
	after, err := datalog.Ground(small, chain.Clone(), datalog.TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(after.Horn.Clauses), len(before.Horn.Clauses)+1; got != want {
		t.Fatalf("after Add: %d clauses, want %d", got, want)
	}
	if !slices.Contains(datalog.CanonicalClauses(after), "marked(s0) :- theta0(s0)") {
		t.Fatalf("added rule not grounded: %q", datalog.CanonicalClauses(after))
	}
}

// TestGroundConcurrentFirstBuild races eight groundings on the first
// build of one freshly compiled program's analysis: all of them must
// produce the same clause multiset. Run it under -race.
func TestGroundConcurrentFirstBuild(t *testing.T) {
	p := compileTreeQuery(t)
	edb, w := tdTuple(t, coloredTree(12, rand.New(rand.NewSource(8))))
	fds := datalog.TDFuncDeps(w)
	edbs := make([]*datalog.DB, 8)
	for i := range edbs {
		edbs[i] = edb.Clone()
	}
	results := make([][]string, len(edbs))
	errs := make([]error, len(edbs))
	var wg sync.WaitGroup
	for i := range edbs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := datalog.Ground(p, edbs[i], fds)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = datalog.CanonicalClauses(g)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("grounding %d: %v", i, errs[i])
		}
		if !slices.Equal(results[i], results[0]) {
			t.Fatalf("grounding %d: %d clauses, grounding 0: %d", i, len(results[i]), len(results[0]))
		}
	}
}

// TestGroundLinearPaperRoute counts Theorem 4.4's linearity on the
// paper route: for the compiled c(x) program on random colored trees,
// clauses and atoms per element stay within 10% across n = 60, 120
// and 240.
func TestGroundLinearPaperRoute(t *testing.T) {
	p := compileTreeQuery(t)
	rng := rand.New(rand.NewSource(60))
	var clauses, atoms []float64
	for _, n := range []int{60, 120, 240} {
		edb, w := tdTuple(t, coloredTree(n, rng))
		g, err := datalog.Ground(p, edb, datalog.TDFuncDeps(w))
		if err != nil {
			t.Fatal(err)
		}
		clauses = append(clauses, float64(len(g.Horn.Clauses))/float64(n))
		atoms = append(atoms, float64(g.NumAtoms())/float64(n))
	}
	for _, m := range []struct {
		name string
		v    []float64
	}{{"clauses", clauses}, {"atoms", atoms}} {
		lo, hi := slices.Min(m.v), slices.Max(m.v)
		if hi > 1.10*lo {
			t.Errorf("%s per element over n = 60/120/240: %.2f, spread %.3f > 1.10", m.name, m.v, hi/lo)
		}
		t.Logf("%s per element over n = 60/120/240: %.2f", m.name, m.v)
	}
}
