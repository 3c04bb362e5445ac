package session

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/stage"
)

// TestEvalPathDirectMatchesGrounded pins the direct evaluation path:
// streaming the compiled program through the datalog engine computes
// the same answers as the Theorem 4.4 grounding pipeline, and only the
// direct path moves tuples through the streaming engine — which is
// exactly what the session's engine stats must reflect.
func TestEvalPathDirectMatchesGrounded(t *testing.T) {
	defer SetEvalPath(SetEvalPath(EvalGrounded))
	rng := rand.New(rand.NewSource(11))
	st := randColored(rng, 7)
	ctx := context.Background()
	for _, q := range tenQueries {
		phi := mso.MustParse(q)

		SetEvalPath(EvalGrounded)
		grounded := NewWithCache(st, NewProgramCache())
		gres, err := grounded.Eval(ctx, phi, "x", core.Options{})
		if err != nil {
			t.Fatalf("grounded %q: %v", q, err)
		}

		SetEvalPath(EvalDirect)
		direct := NewWithCache(st, NewProgramCache())
		dres, err := direct.Eval(ctx, phi, "x", core.Options{})
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}

		if !gres.Selected.Equal(dres.Selected) {
			t.Fatalf("query %q: direct selected %v, grounded %v", q, dres.Selected.Elems(), gres.Selected.Elems())
		}
		if gs := grounded.Stats(); gs.TuplesStreamed != 0 {
			t.Fatalf("query %q: grounded path streamed %d tuples, want 0 (grounding bypasses the engine)", q, gs.TuplesStreamed)
		}
		if ds := direct.Stats(); ds.TuplesStreamed == 0 {
			t.Fatalf("query %q: direct path reported no streamed tuples", q)
		}
	}
}

// TestGroundedPathIgnoresStreamBudget pins the grounded path's
// metering: grounding runs on the engine's join plans, but it is charged
// to MaxGroundAtoms only, so a one-row stream-tuples cap neither stops a
// grounded Session.Eval nor changes its answer. The same cap does stop
// the direct path, which shows the cap is live.
func TestGroundedPathIgnoresStreamBudget(t *testing.T) {
	defer SetEvalPath(SetEvalPath(EvalGrounded))
	rng := rand.New(rand.NewSource(13))
	st := randColored(rng, 7)
	capped := func() context.Context {
		return stage.WithBudget(context.Background(), &stage.Budget{MaxStreamTuples: 1})
	}
	for _, q := range tenQueries {
		phi := mso.MustParse(q)
		SetEvalPath(EvalGrounded)
		want, err := NewWithCache(st, NewProgramCache()).Eval(context.Background(), phi, "x", core.Options{})
		if err != nil {
			t.Fatalf("unbudgeted %q: %v", q, err)
		}
		got, err := NewWithCache(st, NewProgramCache()).Eval(capped(), phi, "x", core.Options{})
		if err != nil {
			t.Fatalf("grounded %q under MaxStreamTuples=1: %v", q, err)
		}
		if !got.Selected.Equal(want.Selected) {
			t.Fatalf("query %q: budgeted selected %v, unbudgeted %v", q, got.Selected.Elems(), want.Selected.Elems())
		}

		SetEvalPath(EvalDirect)
		if _, err := NewWithCache(st, NewProgramCache()).Eval(capped(), phi, "x", core.Options{}); !errors.Is(err, stage.ErrBudgetExceeded) {
			t.Fatalf("direct %q under MaxStreamTuples=1: got %v, want a budget error", q, err)
		}
	}
}

// TestEvalPathDirectDecision checks the 0-ary decision variant under
// the direct path.
func TestEvalPathDirectDecision(t *testing.T) {
	defer SetEvalPath(SetEvalPath(EvalDirect))
	rng := rand.New(rand.NewSource(12))
	st := randColored(rng, 6)
	ctx := context.Background()
	for _, q := range []string{"exists x (c(x))", "forall x (c(x) | ~c(x))"} {
		phi := mso.MustParse(q)
		s := NewWithCache(st, NewProgramCache())
		res, err := s.Eval(ctx, phi, "", core.Options{Decision: true})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want, err := mso.Sentence(st, phi, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds != want {
			t.Fatalf("%q: holds = %v, want %v", q, res.Holds, want)
		}
	}
}
