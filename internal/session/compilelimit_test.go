package session

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/stage"
)

// TestCompileLimitTyped pins the typed compile-limit failure at the
// session boundary: under the default options the rank-1 query below
// outgrows the compiler's type limit on a width-1 path, and Eval must
// report it as core.ErrCompileLimit, tagged with the compile stage, with
// the limit's message unchanged and without a budget violation, so the
// CLI exit code and HTTP status stay those of a generic failure.
func TestCompileLimitTyped(t *testing.T) {
	st := randMutable(rand.New(rand.NewSource(81)), 6)
	s := NewWithCache(st, NewProgramCache())
	phi := mso.MustParse("c(x) & exists y (e(x,y) & ~c(y))")
	_, err := s.Eval(context.Background(), phi, "x", core.Options{})
	if !errors.Is(err, core.ErrCompileLimit) {
		t.Fatalf("err = %v, want core.ErrCompileLimit", err)
	}
	if got := stage.Of(err); got != stage.Compile {
		t.Fatalf("tagged stage %q, want %q", got, stage.Compile)
	}
	if !strings.Contains(err.Error(), "core: type limit 2000 exceeded (reduce k or w, or raise MaxTypes)") {
		t.Fatalf("err = %q, want the type-limit message", err)
	}
	if errors.Is(err, stage.ErrBudgetExceeded) {
		t.Fatalf("err = %v: a compile limit is not a budget violation", err)
	}
	if code, status := cli.ExitCode(err), cli.HTTPStatus(err); code != cli.ExitError || status != http.StatusInternalServerError {
		t.Fatalf("exit code %d, HTTP status %d; want %d and %d", code, status, cli.ExitError, http.StatusInternalServerError)
	}
}
