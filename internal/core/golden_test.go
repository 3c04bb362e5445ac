package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
)

var update = flag.Bool("update", false, "rewrite the compiler goldens under testdata/compile")

var (
	sigGoldenTree = structure.MustSignature(structure.Predicate{Name: "e", Arity: 2}, structure.Predicate{Name: "c", Arity: 1})
	sigGoldenSet  = structure.MustSignature(structure.Predicate{Name: "c", Arity: 1})
)

// compileCases are the Theorem 4.5 compilations whose output
// TestCompileGolden pins: the paper-route benchmark's feasible formulas
// at the widths it compiles them for, a negated binary atom, a rank-2
// formula, a decision sentence, and two formulas that hit a compile
// limit under the default options.
var compileCases = []struct {
	name    string
	sig     *structure.Signature
	formula string
	opts    Options
}{
	{"tree_c", sigGoldenTree, "c(x)", Options{Width: 1}},
	{"tree_not_c", sigGoldenTree, "~c(x)", Options{Width: 1}},
	{"tree_c_or_not_c", sigGoldenTree, "c(x) | ~c(x)", Options{Width: 1}},
	{"tree_c_and_not_c", sigGoldenTree, "c(x) & ~c(x)", Options{Width: 1}},
	{"set_exists_not_c", sigGoldenSet, "c(x) & exists y ~c(y)", Options{Width: 0}},
	{"set_forall_c", sigGoldenSet, "c(x) | forall y c(y)", Options{Width: 0}},
	{"set_exists_c", sigGoldenSet, "~c(x) & exists y c(y)", Options{Width: 0}},
	{"tree_no_loop", sigGoldenTree, "c(x) & ~e(x,x)", Options{Width: 1}},
	{"set_rank2", sigGoldenSet, "exists y forall z (c(y) & (c(x) -> c(z)))", Options{Width: 0, MaxTypes: 20000}},
	{"set_decision", sigGoldenSet, "exists y c(y) & exists z ~c(z)", Options{Width: 1, Decision: true}},
	{"tree_defect", sigGoldenTree, "c(x) & exists y (e(x,y) & ~c(y))", Options{Width: 1}},
	{"tree_exists_edge", sigGoldenTree, "exists y e(x,y)", Options{Width: 1}},
}

// compileFingerprint compiles one case under a metering budget and
// renders what must not change when the compiler's internals do: the
// SHA-256 of the program text, its size and type counts, or the error
// text, and in both cases the k-types the budget was charged for.
func compileFingerprint(t *testing.T, sig *structure.Signature, formula string, opts Options) string {
	t.Helper()
	b := &stage.Budget{MaxStates: 1 << 40}
	xVar := "x"
	if opts.Decision {
		xVar = ""
	}
	compiled, err := CompileCtx(stage.WithBudget(context.Background(), b), sig, mso.MustParse(formula), xVar, opts)
	_, states, _ := b.Used()
	var out strings.Builder
	if err != nil {
		fmt.Fprintf(&out, "error %s\n", err)
	} else {
		fmt.Fprintf(&out, "program_sha256 %x\n", sha256.Sum256([]byte(compiled.Program.String())))
		fmt.Fprintf(&out, "rules %d\n", len(compiled.Program.Rules))
		fmt.Fprintf(&out, "up_types %d\n", compiled.UpTypes)
		fmt.Fprintf(&out, "down_types %d\n", compiled.DownTypes)
	}
	fmt.Fprintf(&out, "states %d\n", states)
	return out.String()
}

// TestCompileGolden pins the compiler's output: the program text (by
// hash), the Θ↑/Θ↓ type counts and the budget's states tally must match
// the goldens exactly, and so must the error and the tally at failure
// of the cases that exceed a limit. Regenerate with go test -run
// TestCompileGolden -update only for an intended change of the
// construction.
func TestCompileGolden(t *testing.T) {
	for _, tc := range compileCases {
		t.Run(tc.name, func(t *testing.T) {
			got := compileFingerprint(t, tc.sig, tc.formula, tc.opts)
			path := filepath.Join("testdata", "compile", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s (%q, width %d):\n got  %s want %s", path, tc.formula, tc.opts.Width, got, want)
			}
		})
	}
}

// TestCompileLimitErrors pins that each size limit of the compiler fails
// with ErrCompileLimit under its unchanged message, and that a malformed
// request does not.
func TestCompileLimitErrors(t *testing.T) {
	phi := mso.MustParse("c(x)")
	for _, tc := range []struct {
		opts Options
		msg  string
	}{
		{Options{Width: 1, MaxTypes: 1}, "core: type limit 1 exceeded (reduce k or w, or raise MaxTypes)"},
		{Options{Width: 1, MaxEDBSubsets: 2}, "core: |R(ā)| = 2 atoms gives too many EDB subsets (limit 2)"},
		{Options{Width: 1, MaxWitnessDomain: 2}, "core: witness domain would exceed 2 elements; raise MaxWitnessDomain or reduce k/w"},
	} {
		_, err := Compile(sigColor, phi, "x", tc.opts)
		if !errors.Is(err, ErrCompileLimit) {
			t.Errorf("%+v: err = %v, want ErrCompileLimit", tc.opts, err)
			continue
		}
		if err.Error() != tc.msg {
			t.Errorf("%+v: message %q, want %q", tc.opts, err, tc.msg)
		}
	}
	if _, err := Compile(sigColor, phi, "y", Options{Width: 1}); err == nil || errors.Is(err, ErrCompileLimit) {
		t.Errorf("wrong free variable: err = %v, want a non-limit error", err)
	}
}
