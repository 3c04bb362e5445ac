package datalog

import (
	"sort"
	"strings"
)

// Test-only exports for the external datalog_test package, which can
// import the compilers (core, threecol) that themselves import datalog.

// TDProgramSrc and ChainTD expose the internal τ_td chain fixtures.
const TDProgramSrc = tdProgram

var ChainTD = chainTD

// GroundAnalyses reports how many grounding analyses have been built
// since process start; tests diff it around groundings.
func GroundAnalyses() int64 { return groundAnalyses.Load() }

// CanonicalClauses renders the ground program independently of atom
// numbering: every clause as "head :- b1, b2" with atoms printed as
// pred(consts), bodies sorted, and the clause list sorted. Duplicate
// clauses are kept, so two groundings render equal exactly when they
// are the same clause multiset.
func CanonicalClauses(g *GroundProgram) []string {
	name := func(id int) string {
		pred, tuple := g.preds[g.atoms[id].pred], g.tuple(id)
		if len(tuple) == 0 {
			return pred
		}
		args := make([]string, len(tuple))
		for i, c := range tuple {
			args[i] = g.db.ConstName(c)
		}
		return pred + "(" + strings.Join(args, ",") + ")"
	}
	out := make([]string, len(g.Horn.Clauses))
	for i, cl := range g.Horn.Clauses {
		body := make([]string, len(cl.Body))
		for j, b := range cl.Body {
			body[j] = name(b)
		}
		sort.Strings(body)
		out[i] = name(cl.Head)
		if len(body) > 0 {
			out[i] += " :- " + strings.Join(body, ", ")
		}
	}
	sort.Strings(out)
	return out
}
