// Command perfbench is the repository benchmark. It runs one named
// workload against the unmodified library (serve-mixed also starts an
// in-process monadicd server), checks every answer, and prints one JSON
// result line as the last line of standard output: the end-to-end
// metrics with -trace 0, or the per-layer metrics of a traced replay of
// the same op sequence with -trace 1. All tracing lives in this
// package, around calls into each module's public functions.
//
// Run it from the repository root through perfbench/run.py, which builds
// this module and passes the flags through:
//
//	python3 perfbench/run.py --workload paper-route --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads, the metrics and the
// layer each per-layer metric should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed when -seed is not given. Claims made
// while developing against it are re-checked on another seed.
const defaultSeed = 1

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// tail is the latency percentile reported as latency_tail_ms.
	tail float64
}

// report is what a workload run hands back: op counts, wrong answers,
// and the metric values (end-to-end from the untraced run, per-layer
// from the traced replay when cfg.trace is set).
type report struct {
	attempted, failed int
	wrong             []string
	endToEnd          map[string]float64
	layers            map[string]float64
	info              map[string]any
	spans             []span
}

func (r *report) wrongf(format string, args ...any) {
	const keep = 20 // enough to diagnose; a broken build would otherwise flood stderr
	if len(r.wrong) < keep {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	} else if len(r.wrong) == keep {
		r.wrong = append(r.wrong, "(further wrong answers omitted)")
	}
}

// benchWorkload is one named, seeded op sequence.
type benchWorkload struct {
	// why is the one-line rationale, also recorded in BENCHMARK.json.
	why string
	// tail is the latency percentile reported as latency_tail_ms. It
	// leaves at least ten completed ops beyond it at the run length
	// BENCHMARK.json sets, and whole op cycles put it at the same place
	// in the op mix on every run.
	tail float64
	run  func(ctx context.Context, cfg config) (*report, error)
}

var workloads = map[string]benchWorkload{
	"paper-route": {
		why:  "Theorem 4.4/4.5 route under default options on fresh structures; grounding does almost all the work, the solver none",
		tail: 0.75,
		run:  runPaperRoute,
	},
	"solver-dp": {
		why:  "Section 5 DPs on fresh partial k-trees and Table 1 schemas: decompose, nice normalization and solver, bypassing core and datalog",
		tail: 0.90,
		run:  runSolverDP,
	},
	"serve-mixed": {
		why: "in-process monadicd with a closed-loop client whose warm working set fits the caches; reads between writes, game and solver",
		// p99 would leave ten ops beyond it, but it sits among the few
		// slowest game evaluations and moved by half between runs on a
		// shared two-vCPU machine; p95 is the middle of the game class.
		tail: 0.95,
		run:  runServeMixed,
	},
}

// endToEndUnits and layerUnits name every metric this benchmark prints,
// with its unit; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"elems_per_s":     "1/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"ok_share":        "share",
	"alloc_mb_per_op": "MB",
}

var layerUnits = map[string]string{
	"decompose.ms_per_op":             "ms",
	"decompose.width_max":             "count",
	"decompose.ms_per_elem.n1000":     "ms/elem",
	"decompose.ms_per_elem.n2000":     "ms/elem",
	"decompose.ms_per_elem.n4000":     "ms/elem",
	"tree.ms_per_op":                  "ms",
	"tree.td_facts_per_elem":          "facts/elem",
	"tree.nice_ms_per_op":             "ms",
	"tree.nice_nodes_per_elem":        "nodes/elem",
	"core.compile_ms_per_op":          "ms",
	"core.compile_failures":           "count",
	"core.program_cache_hit_share":    "share",
	"core.finish_ms_per_op":           "ms",
	"datalog.ground_ms_per_op":        "ms",
	"datalog.ground_alloc_mb_per_op":  "MB",
	"datalog.ground_atoms_per_elem":   "atoms/elem",
	"datalog.ground_size_per_elem":    "size/elem",
	"datalog.true_atom_share":         "share",
	"datalog.seminaive_ms_per_op":     "ms",
	"datalog.ground_ms_per_elem.n30":  "ms/elem",
	"datalog.ground_ms_per_elem.n60":  "ms/elem",
	"datalog.ground_ms_per_elem.n120": "ms/elem",
	"horn.solve_ms_per_op":            "ms",
	"solver.up_ms_per_op":             "ms",
	"solver.walk_ms_per_op":           "ms",
	"solver.table_entries_per_node":   "entries/node",
	"primality.instance_ms_per_op":    "ms",
	"primality.enumerate_ms_per_op":   "ms",
	"structure.parse_ms_per_req":      "ms",
	"session.fingerprint_ms_per_req":  "ms",
	"session.eval_hit_ms":             "ms",
	"session.result_hit_share":        "share",
	"session.mutate_ms":               "ms",
	"session.delta_share":             "share",
	"server.overhead_ms":              "ms",
	"server.mutate_overhead_ms":       "ms",
	"server.game_overhead_ms":         "ms",
	"server.solve_overhead_ms":        "ms",
	"server.eval_p50_ms":              "ms",
	"server.mutate_p50_ms":            "ms",
	"server.game_p50_ms":              "ms",
	"server.solve_p50_ms":             "ms",
	"game.ms_per_op":                  "ms",
	"game.positions_per_op":           "count",
	"solver.solve_ms_per_op":          "ms",
	"solver.cache_hit_share":          "share",
	"overload.shed_share":             "share",
	"overload.limit_final":            "count",
	"bench.layer_coverage":            "ratio",
	"bench.trace_overhead_share":      "share",
}

func main() {
	name := flag.String("workload", "", "workload: paper-route, solver-dp or serve-mixed")
	seed := flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = report the per-layer metrics of a traced replay")
	commit := flag.String("commit", "unknown", "source identity stamped on the result")
	spansOut := flag.String("spans", "", "with -trace 1, write the replay's spans to this JSON file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, tail: w.tail}

	out := bufio.NewWriter(os.Stdout)
	printJSON(out, map[string]any{"stamp": stamp(*name, w, cfg, *commit)})
	out.Flush()

	rep, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace && *spansOut != "" {
		if err := writeSpans(*spansOut, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}

	units, values := endToEndUnits, rep.endToEnd
	if cfg.trace {
		units, values = layerUnits, rep.layers
	}
	res := result{
		Correct:   len(rep.wrong) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range sortedKeys(units) {
		v, ok := values[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, n)
			os.Exit(1)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, v, units[n])
	}
	if rep.info != nil {
		printJSON(out, map[string]any{"info": rep.info})
	}
	for _, msg := range rep.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s\n", msg)
	}
	printJSON(out, res)
	out.Flush()
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printJSON(out *bufio.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings reach here
	}
	out.Write(b)
	out.WriteByte('\n')
}

// stamp records what a result was measured on.
func stamp(name string, w benchWorkload, cfg config, commit string) map[string]any {
	return map[string]any{
		"workload":        name,
		"why":             w.why,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           cfg.trace,
		"tail_percentile": w.tail * 100,
		"commit":          commit,
		"go_version":      runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"cpu_model":       cpuModel(),
		"started":         time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one; elsewhere it reports the architecture.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
