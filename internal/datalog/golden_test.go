package datalog_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/structure"
	"repro/internal/threecol"
	"repro/internal/tree"
)

var update = flag.Bool("update", false, "rewrite the grounding goldens under testdata/ground")

// groundCase is one pinned Theorem 4.4 grounding: a quasi-guarded
// program, its EDB and the functional dependencies that guard it.
type groundCase struct {
	prog *datalog.Program
	edb  *datalog.DB
	fds  []datalog.FuncDep
}

// tdTuple decomposes st, tuple-normalizes the decomposition and returns
// the τ_td database with its width.
func tdTuple(t *testing.T, st *structure.Structure) (*datalog.DB, int) {
	t.Helper()
	d, err := decompose.Structure(st, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := tree.NormalizeTuple(d)
	if err != nil {
		t.Fatal(err)
	}
	w := norm.Width()
	td, _, err := tree.BuildTD(st, norm, w)
	if err != nil {
		t.Fatal(err)
	}
	return datalog.FromStructure(td, ""), w
}

// groundCases are the golden workloads: the τ_td chain program with
// dropped edges at several lengths, the Section 5.1 monadic 3-colorability
// program on a partial 2-tree, and two programs compiled from MSO by
// core: a quantifier-free query on a colored tree (width 1) and a rank-1
// query on a colored set (width 0), the shapes core compiles under
// default options.
var groundCases = map[string]func(t *testing.T) []groundCase{
	"td_chain": func(t *testing.T) []groundCase {
		var cs []groundCase
		for _, n := range []int{1, 2, 5, 12, 28} {
			full := datalog.ChainTD(n)
			db := datalog.NewDB()
			for _, pred := range full.Preds() {
				for i, tup := range full.Tuples(pred) {
					if pred == "e" && i%4 == n%4 {
						continue // drop every fourth edge, shifted by n
					}
					db.AddFact(pred, tup...)
				}
			}
			cs = append(cs, groundCase{datalog.MustParse(datalog.TDProgramSrc), db, datalog.TDFuncDeps(1)})
		}
		return cs
	},
	"threecol": func(t *testing.T) []groundCase {
		g := graph.PartialKTree(7, 2, 0.3, rand.New(rand.NewSource(5)))
		edb, w := tdTuple(t, g.ToStructure())
		return []groundCase{{threecol.MonadicProgram(w), edb, datalog.TDFuncDeps(w)}}
	},
	"mso_tree": func(t *testing.T) []groundCase {
		sig := structure.MustSignature(
			structure.Predicate{Name: "c", Arity: 1},
			structure.Predicate{Name: "e", Arity: 2})
		st := structure.MustParse(`dom v0 v1 v2 v3 v4 v5.
e(v0, v1). e(v1, v0). e(v0, v2). e(v2, v0). e(v2, v3). e(v3, v2).
e(v2, v4). e(v4, v2). e(v4, v5). e(v5, v4).
c(v0). c(v2). c(v4). c(v5).`, sig)
		return []groundCase{compileCase(t, st, "c(x) & ~e(x,x)")}
	},
	"mso_set": func(t *testing.T) []groundCase {
		sig := structure.MustSignature(structure.Predicate{Name: "c", Arity: 1})
		st := structure.MustParse("dom v0 v1 v2 v3 v4 v5.\nc(v1). c(v2). c(v4).", sig)
		return []groundCase{compileCase(t, st, "c(x) & exists y ~c(y)")}
	},
}

// compileCase compiles the unary MSO query through core at st's
// decomposition width, as the Theorem 4.5 route does.
func compileCase(t *testing.T, st *structure.Structure, formula string) groundCase {
	t.Helper()
	edb, w := tdTuple(t, st)
	compiled, err := core.Compile(st.Sig(), mso.MustParse(formula), "x", core.Options{Width: w})
	if err != nil {
		t.Fatal(err)
	}
	return groundCase{compiled.Program, edb, datalog.TDFuncDeps(w)}
}

// TestGroundGolden pins the Horn program of the Theorem 4.4 grounding:
// the clause multiset, rendered independently of atom numbering, must
// match the goldens exactly. Regenerate with go test -run
// TestGroundGolden -update only for an intended change of the grounding.
func TestGroundGolden(t *testing.T) {
	for name, build := range groundCases {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			for i, c := range build(t) {
				g, err := datalog.Ground(c.prog, c.edb, c.fds)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "# case %d: %d clauses\n", i, len(g.Horn.Clauses))
				for _, cl := range datalog.CanonicalClauses(g) {
					b.WriteString(cl)
					b.WriteByte('\n')
				}
			}
			path := filepath.Join("testdata", "ground", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := b.String()
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
		})
	}
}
