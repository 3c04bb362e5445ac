package bench

import (
	"context"
	"os"
	"testing"

	"repro/internal/datalog"
)

// TestRACompareSmoke runs the full -ra comparison at a small size: all
// three legs must produce the accepted fixpoint, the grounding must die
// under the ground-atom cap while the direct path completes, and the
// engine counters must be live.
func TestRACompareSmoke(t *testing.T) {
	res, err := RACompare(context.Background(), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.GroundLits == 0 || res.Facts == 0 {
		t.Fatalf("empty workload: %+v", res)
	}
	if !res.DirectUnderCap {
		t.Fatal("direct path did not complete under the ground-atom cap")
	}
	if res.GroundedBudget == "" {
		t.Fatal("grounded path survived the ground-atom cap")
	}
	if res.TuplesStreamed == 0 || res.JoinsPushedDown == 0 {
		t.Fatalf("engine counters dead: %+v", res)
	}
}

// Allocation ceilings of TestRAAllocGate, in bytes: 1.10× the B/op
// measured on go1.24.0/amd64 at the last commit that still carried the
// materialized backend (streaming TC 115.49 MB, streaming τ_td 11.28 MB)
// and, for the grounded leg, 1.10× the B/op of the shared-join grounder
// (9.23 MB).
const (
	tcStreamCeiling   = 127_041_094 // 1.10 × 115_491_904
	tdStreamCeiling   = 12_411_212  // 1.10 × 11_282_920
	tdGroundedCeiling = 10_149_427  // 1.10 × 9_226_752
)

// groundedGrowthCeiling bounds how much the grounded path's bytes per
// ground literal may grow when the τ_td chain doubles from 1000 to 2000
// bags (1.11 measured on go1.24.0/amd64): grounding allocates linearly
// in the ground program it materializes, as Theorem 4.4's O(|P|·|A|)
// promises.
const groundedGrowthCeiling = 1.25

// TestRAAllocGate is the CI allocation-regression gate (set
// BENCH_ALLOC_GATE=1 to run; it is skipped otherwise so ordinary test
// runs — and -race runs, whose instrumentation skews allocation volume
// — stay unaffected). It pins the streaming engine's B/op on the two
// acceptance workloads, transitive closure (BenchmarkTCPath1000's
// shape) and the τ_td grounding comparison (BenchmarkTDGrounding's
// shape), and the grounder's B/op on the latter, and checks that the
// grounder's B/op grows linearly with the ground program.
func TestRAAllocGate(t *testing.T) {
	if os.Getenv("BENCH_ALLOC_GATE") == "" {
		t.Skip("set BENCH_ALLOC_GATE=1 to run the allocation gate")
	}
	measure := func(f func() error) int64 {
		// Warm once (index builds, arena growth), then measure.
		if err := f(); err != nil {
			t.Fatal(err)
		}
		_, bytes, err := measureAlloc(f)
		if err != nil {
			t.Fatal(err)
		}
		return bytes
	}

	// Gate 1: streaming must not regress allocation volume on TC (10%
	// headroom for allocator noise; the run allocates the Θ(n²) derived
	// facts).
	tcEDB := TCPathEDB(1000)
	tcStream := measure(func() error { _, err := datalog.Eval(TCProgram, tcEDB); return err })
	if tcStream > tcStreamCeiling {
		t.Errorf("TC alloc regression: streaming %d B > ceiling %d B", tcStream, tcStreamCeiling)
	}

	// Gate 2: on the τ_td grounding workload the direct streaming path
	// and the Theorem 4.4 grounding each stay within their ceilings, and
	// the grounding's bytes per ground literal stay flat as the chain
	// doubles.
	prog, edb := TDChainProgram(RATypes), TDChain(2000)
	tdStream := measure(func() error { _, err := datalog.Eval(prog, edb); return err })
	groundedPerLit := func(edb *datalog.DB) (int64, float64) {
		g, err := datalog.Ground(prog, edb.Clone(), datalog.TDFuncDeps(1))
		if err != nil {
			t.Fatal(err)
		}
		bytes := measure(func() error {
			_, err := datalog.EvalQuasiGuarded(prog, edb.Clone(), datalog.TDFuncDeps(1))
			return err
		})
		return bytes, float64(bytes) / float64(g.Size())
	}
	_, halfPerLit := groundedPerLit(TDChain(1000))
	grounded, perLit := groundedPerLit(edb)
	t.Logf("τ_td: streaming %d B, grounded %d B; grounded %.1f B/literal at 1000 bags, %.1f at 2000", tdStream, grounded, halfPerLit, perLit)
	if perLit > groundedGrowthCeiling*halfPerLit {
		t.Errorf("grounding grew superlinearly: %.1f B/literal at 2000 bags > %.2f × %.1f at 1000", perLit, groundedGrowthCeiling, halfPerLit)
	}
	if tdStream > tdStreamCeiling {
		t.Errorf("τ_td alloc regression: streaming %d B > ceiling %d B", tdStream, tdStreamCeiling)
	}
	if grounded > tdGroundedCeiling {
		t.Errorf("grounding alloc regression: grounded %d B > ceiling %d B", grounded, tdGroundedCeiling)
	}
}
