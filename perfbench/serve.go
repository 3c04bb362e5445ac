package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/threecol"
	"repro/internal/vcover"

	// The game backend registers itself for X-Backend: game.
	_ "repro/internal/backend/game"
)

// serve-mixed: an in-process monadicd with the shipped defaults
// (server.Config{}), reached over loopback HTTP by serveClients closed-
// loop clients with retries off, so every refusal counts as a failure.
// Each client owns serveStructs colored trees, warmed during setup, and
// only it mutates them, so every request finds its warm session.

const (
	serveClients = 1
	serveStructs = 6
	serveElems   = 40
	// serveWindow makes each structure a random tree in which vertex i
	// hangs off one of the three vertices before it. The game op's cost
	// varies 6% between such trees and 16% between uniform recursive
	// trees (over four colorings each), so with the latter a run's
	// figures followed its seed's trees.
	serveWindow = 3
	serveQuery  = "c(x)"
	// serveSetupReps is how many servers a run starts and warms; setup_s
	// is the median, and the last server is measured.
	serveSetupReps = 3
	// gameFormula is the rank-2 sentence of BENCH_game.json, evaluated by
	// the game backend on a structure mutated since its last game eval,
	// so the game re-explores instead of hitting the result cache.
	gameFormula = "exists x exists y (e(x,y) & c(x))"
	// refPause is how often the clients pause for the host references.
	refPause = 250 * time.Millisecond
)

type serveClass int

const (
	classEval serveClass = iota
	classMutate
	classGame
	classSolve
)

var serveClassNames = [...]string{"eval", "mutate", "game", "solve"}

func (c serveClass) String() string { return serveClassNames[c] }

// serveCycle is one client's op mix, shuffled per cycle: warm automaton
// evals (60%), colour toggles with the automaton re-query (20%), game
// evals (10%) and solves (10%). Clients stop only at cycle ends.
var serveCycle = []serveClass{classEval, classEval, classEval, classEval, classEval, classEval, classMutate, classMutate, classGame, classSolve}

// serveOp is one op and the answers HTTP gave for it.
type serveOp struct {
	class   serveClass
	target  int    // structure index within the client
	text    string // request structure text
	elem    int    // mutate: the element whose colour toggles
	insert  bool   // mutate: add c(elem) rather than remove it
	problem string // solve: "threecol" (decide) or "vcover" (optimize)

	selected []string // eval and mutate re-query answer
	newText  string   // mutate: post-edit text from /mutate
	holds    bool     // game
	solveOK  bool     // threecol decide
	solveVal int      // vcover optimum
	ns       int64
	win      int // the reference window the op ran in
	err      error
}

// serveWorker is one client: its structures' current texts and colours,
// and the log of its ops.
type serveWorker struct {
	id         int
	auto, game *client.Client
	initial    [serveStructs]string
	texts      [serveStructs]string
	colored    [serveStructs][]bool
	log        []serveOp
}

func newServeWorker(seed int64, id int, url string, hc *http.Client) *serveWorker {
	w := &serveWorker{id: id, auto: client.New(url), game: client.New(url)}
	w.game.Backend = "game"
	for _, c := range []*client.Client{w.auto, w.game} {
		c.HTTP = hc
		c.MaxAttempts = 1
	}
	for s := 0; s < serveStructs; s++ {
		rng := rand.New(rand.NewSource(opSeed(seed, 1<<20+id*serveStructs+s)))
		st := coloredTree(serveElems, serveWindow, rng)
		w.initial[s] = st.String()
		w.texts[s] = w.initial[s]
		w.colored[s] = make([]bool, serveElems)
		for e := 0; e < serveElems; e++ {
			w.colored[s][e] = st.Has("c", e)
		}
	}
	return w
}

// plan returns the ops of one cycle. Everything but the toggle
// direction comes from (seed, client, cycle); the game op targets the
// structure of the last mutate before it, which the shuffle guarantees.
func (w *serveWorker) plan(seed int64, cycle int) []serveOp {
	rng := rand.New(rand.NewSource(opSeed(seed, 1<<24+w.id<<16+cycle)))
	classes := append([]serveClass(nil), serveCycle...)
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	g, m := -1, -1
	for i, c := range classes {
		if c == classGame {
			g = i
		}
		if c == classMutate && m < 0 {
			m = i
		}
	}
	if g < m {
		classes[g], classes[m] = classes[m], classes[g]
	}
	ops := make([]serveOp, len(classes))
	lastMutated := 0
	for i, c := range classes {
		op := serveOp{class: c, target: rng.Intn(serveStructs)}
		switch c {
		case classMutate:
			op.elem = rng.Intn(serveElems)
			lastMutated = op.target
		case classGame:
			op.target = lastMutated
		case classSolve:
			op.problem = [...]string{"threecol", "vcover"}[rng.Intn(2)]
		}
		ops[i] = op
	}
	return ops
}

func elemName(e int) string { return fmt.Sprintf("v%d", e) }

// exec sends op over HTTP and records the answers.
func (w *serveWorker) exec(ctx context.Context, op *serveOp) error {
	op.text = w.texts[op.target]
	switch op.class {
	case classEval:
		resp, err := w.auto.Eval(ctx, server.EvalRequest{Structure: op.text, Formula: serveQuery, Var: "x"})
		if err != nil {
			return err
		}
		op.selected = resp.Selected
	case classMutate:
		op.insert = !w.colored[op.target][op.elem]
		fact := []server.MutateFact{{Pred: "c", Args: []string{elemName(op.elem)}}}
		req := server.MutateRequest{Structure: op.text}
		if op.insert {
			req.Insert = fact
		} else {
			req.Remove = fact
		}
		mresp, err := w.auto.Mutate(ctx, req)
		if err != nil {
			return err
		}
		op.newText = mresp.Structure
		w.texts[op.target] = op.newText
		w.colored[op.target][op.elem] = op.insert
		resp, err := w.auto.Eval(ctx, server.EvalRequest{Structure: op.newText, Formula: serveQuery, Var: "x"})
		if err != nil {
			return err
		}
		op.selected = resp.Selected
	case classGame:
		resp, err := w.game.Eval(ctx, server.EvalRequest{Structure: op.text, Formula: gameFormula})
		if err != nil {
			return err
		}
		if resp.Holds == nil {
			return fmt.Errorf("game eval: no truth value in the response")
		}
		op.holds = *resp.Holds
	case classSolve:
		mode := "decide"
		if op.problem == "vcover" {
			mode = "optimize"
		}
		resp, err := w.auto.Solve(ctx, server.SolveRequest{Structure: op.text, Problem: op.problem, Mode: mode})
		if err != nil {
			return err
		}
		switch {
		case op.problem == "threecol" && resp.OK != nil:
			op.solveOK = *resp.OK
		case op.problem == "vcover" && resp.Value != nil:
			op.solveVal = *resp.Value
		default:
			return fmt.Errorf("solve %s: answer missing from the response", op.problem)
		}
	}
	return nil
}

// warm sends each structure's first requests of every class, so the run
// measures warm sessions.
func (w *serveWorker) warm(ctx context.Context) error {
	for s := 0; s < serveStructs; s++ {
		for _, op := range []serveOp{
			{class: classEval, target: s},
			{class: classGame, target: s},
			{class: classSolve, target: s, problem: "threecol"},
			{class: classSolve, target: s, problem: "vcover"},
		} {
			if err := w.exec(ctx, &op); err != nil {
				return fmt.Errorf("warm client %d structure %d %s: %w", w.id, s, op.class, err)
			}
		}
	}
	return nil
}

// serveRig is one started server with its warmed clients.
type serveRig struct {
	stop      context.CancelFunc
	done      chan error
	transport *http.Transport
	workers   []*serveWorker

	closeOnce sync.Once
	closeErr  error
}

func startServe(ctx context.Context, seed int64) (*serveRig, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	runCtx, stop := context.WithCancel(ctx)
	rig := &serveRig{
		stop:      stop,
		done:      make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
	}
	srv := server.New(server.Config{})
	go func() { rig.done <- server.Run(runCtx, l, srv, 5*time.Second) }()
	hc := &http.Client{Transport: rig.transport}
	url := "http://" + l.Addr().String()
	for c := 0; c < serveClients; c++ {
		rig.workers = append(rig.workers, newServeWorker(seed, c, url, hc))
	}
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c, w := range rig.workers {
		wg.Add(1)
		go func(c int, w *serveWorker) {
			defer wg.Done()
			errs[c] = w.warm(ctx)
		}(c, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rig.close()
			return nil, err
		}
	}
	return rig, nil
}

// close shuts the server down, waits for it to drain, and drops the
// clients' idle connections. Later calls return the first call's error.
func (r *serveRig) close() error {
	r.closeOnce.Do(func() {
		r.stop()
		r.closeErr = <-r.done
		r.transport.CloseIdleConnections()
	})
	return r.closeErr
}

func runServeMixed(ctx context.Context, cfg config) (*report, error) {
	ref := newHostRef()
	rt, err := newRoundTripRef()
	if err != nil {
		return nil, err
	}
	defer rt.close()
	var setups, scaledSetups []float64
	var rig *serveRig
	for i := 0; i < serveSetupReps; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
		}
		runtime.GC() // collect earlier garbage before timing, as medianSetup does
		before := ref.sample()
		start := time.Now()
		var err error
		if rig, err = startServe(ctx, cfg.seed); err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		setups = append(setups, secs)
		scaledSetups = append(scaledSetups, secs*bracket(refNominalMS, before, ref.sample()))
	}
	defer rig.close()

	statsClient := rig.workers[0].auto
	before, err := statsClient.Statsz(ctx)
	if err != nil {
		return nil, err
	}
	// Every refPause the clients finish their current op and wait while
	// both references run alone; the pauses are left out of the measured
	// window. Window w lies between the references' samples w and w+1.
	var gate sync.RWMutex
	var paused time.Duration
	window := 0
	ref.ms, rt.ms = ref.ms[:0], rt.ms[:0]
	pause := func() {
		t0 := time.Now()
		ref.sample()
		rt.sample()
		paused += time.Since(t0)
	}
	pause()
	paused = 0
	a0 := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range rig.workers {
		wg.Add(1)
		go func(w *serveWorker) {
			defer wg.Done()
			for cycle := 0; ; cycle++ {
				ops := w.plan(cfg.seed, cycle)
				for k := range ops {
					gate.RLock()
					ops[k].win = window
					t0 := time.Now()
					ops[k].err = w.exec(ctx, &ops[k])
					ops[k].ns = int64(time.Since(t0))
					gate.RUnlock()
				}
				w.log = append(w.log, ops...)
				gate.RLock()
				done := (time.Since(start) - paused).Seconds() >= cfg.seconds
				gate.RUnlock()
				if done {
					return
				}
			}
		}(w)
	}
	clientsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(clientsDone)
	}()
	tick := time.NewTicker(refPause)
	for running := true; running; {
		select {
		case <-clientsDone:
			running = false
		case <-tick.C:
			gate.Lock()
			pause()
			window++
			gate.Unlock()
		}
	}
	tick.Stop()
	wall := time.Since(start) - paused
	pause()
	allocBytes := totalAlloc() - a0
	after, err := statsClient.Statsz(ctx)
	if err != nil {
		return nil, err
	}
	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if rt.err != nil {
		return nil, rt.err
	}

	rep := &report{}
	var samples []sample
	var factors []float64
	for _, w := range rig.workers {
		for _, op := range w.log {
			samples = append(samples, sample{class: op.class.String(), n: serveElems, ns: op.ns, ok: op.err == nil})
			factors = append(factors, op.factor(ref, rt))
			rep.attempted++
			if op.err != nil {
				// A refusal is a failed op, not a wrong answer: it shows
				// in ok_share. The first few are printed to diagnose.
				rep.failed++
				if rep.failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: client %d %s failed: %v\n", w.id, op.class, op.err)
				}
			}
		}
	}
	scaled, scaledWall := scaleSamples(samples, factors)
	scaledWall = time.Duration(float64(wall) * float64(scaledWall) / float64(sumNS(samples)))
	rep.endToEnd = endToEnd(scaled, scaledSetups, scaledWall, allocBytes, cfg.tail)
	rep.info = map[string]any{
		"raw":           endToEnd(samples, setups, wall, allocBytes, cfg.tail),
		"ref_ms":        ref.medianMS(),
		"round_trip_ms": rt.medianMS(),
		"failed_share":  float64(rep.failed) / float64(rep.attempted),
		"completed_ops": rep.attempted - rep.failed,
		"setup_s_each":  setups,
		"class_p50_ms":  classP50(samples),
	}

	// The untraced replay checks every answer; with -trace 1 a second,
	// traced replay of the same ops gives the per-layer metrics.
	plain, err := serveReplay(ctx, rig.workers, false, rep)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		traced, err := serveReplay(ctx, rig.workers, true, rep)
		if err != nil {
			return nil, err
		}
		rep.layers = serveLayers(samples, before, after, plain, traced)
		rep.spans = traced.spans
	}
	return rep, nil
}

// factor states op's time at the nominal host speed, from the
// references sampled at the ends of its window. A warm eval or solve is
// a sub-millisecond request whose time is mostly the loopback round
// trip, which a busy host slows more than computation (the request wakes
// the other vCPU, which waits on the host's scheduler), so the round-trip
// reference scales it; a mutate or game op is tens of milliseconds of
// computation, which the compute reference scales.
func (op *serveOp) factor(ref *hostRef, rt *roundTripRef) float64 {
	if op.class == classEval || op.class == classSolve {
		return bracket(roundTripNominalMS, rt.ms[op.win], rt.ms[op.win+1])
	}
	return bracket(refNominalMS, ref.ms[op.win], ref.ms[op.win+1])
}

// roundTripRef is the host reference for requests whose time is mostly
// the loopback HTTP round trip: null requests to a handler that writes
// two bytes, on a server of the benchmark's own, outside the program.
type roundTripRef struct {
	srv  *http.Server
	done chan error
	hc   *http.Client
	url  string
	ms   []float64 // each sample: the median of roundTripReqs requests
	err  error     // the first failed request
}

const roundTripReqs = 15

// roundTripNominalMS is the round-trip speed times are stated at. A warm
// eval takes about 5.6 null round trips, so it puts scaled warm evals
// near the 0.14 ms they took on a quiet 2-vCPU Intel Xeon host.
const roundTripNominalMS = 0.025

func newRoundTripRef() (*roundTripRef, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &roundTripRef{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("ok"))
		})},
		done: make(chan error, 1),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:  "http://" + l.Addr().String() + "/",
	}
	go func() { r.done <- r.srv.Serve(l) }()
	return r, nil
}

// sample times roundTripReqs null requests and returns their median, in ms.
func (r *roundTripRef) sample() float64 {
	times := make([]float64, roundTripReqs)
	for i := range times {
		t0 := time.Now()
		resp, err := r.hc.Get(r.url)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil && r.err == nil {
			r.err = fmt.Errorf("round-trip reference: %w", err)
		}
		times[i] = float64(time.Since(t0)) / 1e6
	}
	ms := median(times)
	r.ms = append(r.ms, ms)
	return ms
}

func (r *roundTripRef) medianMS() float64 { return median(r.ms) }

// close stops the server and waits for it to return.
func (r *roundTripRef) close() {
	r.srv.Close()
	<-r.done
	r.hc.CloseIdleConnections()
}

// classP50 returns the median latency of each op class, in ms.
func classP50(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, c := range serveClassNames {
		out[c] = quantile(latenciesMS(samples, func(s sample) bool { return s.class == c }), 0.5)
	}
	return out
}

// replayStats is what one replay of every client's log measured.
type replayStats struct {
	spans     []span
	opWall    map[string][]float64 // per class, ms
	wall      time.Duration        // summed op wall time
	requests  int
	mutates   int
	deltas    int
	solves    int
	solveHits int
	positions int64
	gameOps   int
}

// serveReplay replays every client's log in process, one goroutine per
// client as over HTTP, through the library calls the server makes for
// each request, and compares every answer with the HTTP one. Answers
// after a mutation are also compared with a cold recompute: the naive
// MSO checker, or a fresh solver run.
func serveReplay(ctx context.Context, workers []*serveWorker, traced bool, rep *report) (*replayStats, error) {
	phiQuery, err := mso.Parse(serveQuery)
	if err != nil {
		return nil, err
	}
	phiGame, err := mso.Parse(gameFormula)
	if err != nil {
		return nil, err
	}
	pc := session.NewProgramCache()
	origin := time.Now()
	parts := make([]*replayStats, len(workers))
	wrong := make([][]string, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for c, w := range workers {
		wg.Add(1)
		go func(c int, w *serveWorker) {
			defer wg.Done()
			r := &replayer{w: w, pc: pc, phiQuery: phiQuery, phiGame: phiGame, st: &replayStats{opWall: map[string][]float64{}}}
			if traced {
				r.tr = newTracer(origin)
			}
			errs[c] = r.run(ctx)
			parts[c], wrong[c] = r.st, r.wrong
			if r.tr != nil {
				r.st.spans = r.tr.spans
			}
		}(c, w)
	}
	wg.Wait()
	out := &replayStats{opWall: map[string][]float64{}}
	for c := range workers {
		if errs[c] != nil {
			return nil, errs[c]
		}
		for _, msg := range wrong[c] {
			rep.wrongf("%s", msg)
		}
		p := parts[c]
		// Re-number this client's ops and parent links past the
		// clients merged before it.
		opBase, spanBase := 0, len(out.spans)
		for _, sp := range out.spans {
			opBase = max(opBase, sp.Op+1)
		}
		for _, sp := range p.spans {
			sp.Op += opBase
			if sp.Parent >= 0 {
				sp.Parent += spanBase
			}
			out.spans = append(out.spans, sp)
		}
		for k, v := range p.opWall {
			out.opWall[k] = append(out.opWall[k], v...)
		}
		out.wall += p.wall
		out.requests += p.requests
		out.mutates += p.mutates
		out.deltas += p.deltas
		out.solves += p.solves
		out.solveHits += p.solveHits
		out.positions += p.positions
		out.gameOps += p.gameOps
	}
	return out, nil
}

// replayer replays one client's log.
type replayer struct {
	w                 *serveWorker
	pc                *session.ProgramCache
	phiQuery, phiGame *mso.Formula
	tr                *tracer
	st                *replayStats
	sessions          [serveStructs]*session.Session
	wrong             []string
}

func (r *replayer) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf("client %d replay: ", r.w.id)+fmt.Sprintf(format, args...))
}

func (r *replayer) run(ctx context.Context) error {
	for s := 0; s < serveStructs; s++ {
		st, err := structure.Parse(r.w.initial[s], nil)
		if err != nil {
			return err
		}
		sess := session.NewWithCache(st, r.pc)
		if _, err := sess.Eval(ctx, r.phiQuery, "x", core.Options{}); err != nil {
			return fmt.Errorf("replay warm: %w", err)
		}
		if _, err := sess.Eval(ctx, r.phiGame, "", core.Options{Decision: true, Backend: "game"}); err != nil {
			return fmt.Errorf("replay warm: %w", err)
		}
		if _, err := r.solve(ctx, sess, "threecol"); err != nil {
			return fmt.Errorf("replay warm: %w", err)
		}
		if _, err := r.solve(ctx, sess, "vcover"); err != nil {
			return fmt.Errorf("replay warm: %w", err)
		}
		r.sessions[s] = sess
	}
	var base session.Stats
	for _, sess := range r.sessions {
		st := sess.Stats()
		base.SolverSolves += st.SolverSolves
		base.SolverCacheHits += st.SolverCacheHits
	}
	for k := range r.w.log {
		op := &r.w.log[k]
		if op.err != nil && op.newText == "" {
			continue // refused before it changed anything; counted as failed
		}
		if err := r.replayOp(ctx, k, op); err != nil {
			return fmt.Errorf("replay op %d (%s): %w", k, op.class, err)
		}
	}
	for _, sess := range r.sessions {
		st := sess.Stats()
		r.st.solves += st.SolverSolves + st.SolverCacheHits
		r.st.solveHits += st.SolverCacheHits
	}
	r.st.solves -= base.SolverSolves + base.SolverCacheHits
	r.st.solveHits -= base.SolverCacheHits
	return nil
}

// request mirrors the server's parsing of a request's structure text,
// which is then fingerprinted to find the session.
func (r *replayer) request(k, root int, text string) (*structure.Structure, error) {
	var st *structure.Structure
	if err := r.tr.do(k, root, "structure.parse", func() (err error) {
		st, err = structure.Parse(text, nil)
		return err
	}); err != nil {
		return nil, err
	}
	r.tr.do(k, root, "session.fingerprint", func() error {
		session.Fingerprint(st)
		return nil
	})
	return st, nil
}

// eval mirrors the server's unary /eval handling after the session
// lookup: formula parse, Session.Eval, element names.
func (r *replayer) eval(ctx context.Context, k, root int, sess *session.Session) ([]string, error) {
	var names []string
	err := r.tr.do(k, root, "session.eval", func() error {
		phi, err := mso.Parse(serveQuery)
		if err != nil {
			return err
		}
		res, err := sess.Eval(ctx, phi, "x", core.Options{})
		if err != nil {
			return err
		}
		names = []string{}
		sess.View(func(st *structure.Structure) {
			for _, id := range res.Selected.Elems() {
				names = append(names, st.Name(id))
			}
		})
		return nil
	})
	return names, err
}

func (r *replayer) solve(ctx context.Context, sess *session.Session, problem string) (int, error) {
	var g *graph.Graph
	sess.View(func(st *structure.Structure) { g = graph.Primal(st) })
	if problem == "threecol" {
		ok, err := session.SolveDecide(ctx, sess, threecol.Problem(g, 3))
		if ok {
			return 1, err
		}
		return 0, err
	}
	der, err := session.SolveOptimize(ctx, sess, vcover.Problem(g))
	if err != nil {
		return 0, err
	}
	if der == nil {
		return 0, fmt.Errorf("vcover: infeasible")
	}
	return der.Value, nil
}

func (r *replayer) replayOp(ctx context.Context, k int, op *serveOp) error {
	sess := r.sessions[op.target]
	t0 := time.Now()
	root := r.tr.begin(k, op.class.String(), -1)
	var check func() // the cold recompute, run outside the op's time
	switch op.class {
	case classEval:
		if _, err := r.request(k, root, op.text); err != nil {
			return err
		}
		names, err := r.eval(ctx, k, root, sess)
		if err != nil {
			return err
		}
		if !equalNames(names, op.selected) {
			r.wrongf("op %d eval: HTTP %v, in-process %v", k, op.selected, names)
		}
	case classMutate:
		if _, err := r.request(k, root, op.text); err != nil {
			return err
		}
		var ms session.MutationStats
		if err := r.tr.do(k, root, "session.mutate", func() (err error) {
			ms, err = sess.Mutate(func(st *structure.Structure) error {
				if op.insert {
					return st.AddFact("c", elemName(op.elem))
				}
				st.RemoveFact("c", elemName(op.elem))
				return nil
			})
			return err
		}); err != nil {
			return err
		}
		r.st.mutates++
		if ms.DeltaApplied {
			r.st.deltas++
		}
		var text string
		r.tr.do(k, root, "structure.render", func() error {
			sess.View(func(st *structure.Structure) { text = st.String() })
			return nil
		})
		canon, err := r.request(k, root, text)
		if err != nil {
			return err
		}
		if text != op.newText {
			r.wrongf("op %d mutate: post-edit text differs from the server's", k)
		}
		if op.err != nil {
			break // the re-query failed over HTTP; the edit is mirrored, nothing to compare
		}
		if _, err := r.request(k, root, op.newText); err != nil {
			return err
		}
		names, err := r.eval(ctx, k, root, sess)
		if err != nil {
			return err
		}
		if !equalNames(names, op.selected) {
			r.wrongf("op %d mutate re-query: HTTP %v, in-process %v", k, op.selected, names)
		}
		check = func() {
			want, err := mso.QueryCtx(ctx, canon, r.phiQuery, "x", nil)
			if err != nil {
				r.wrongf("op %d: naive checker: %v", k, err)
				return
			}
			var cold []string
			for _, id := range want.Elems() {
				cold = append(cold, canon.Name(id))
			}
			if !equalNames(cold, op.selected) {
				r.wrongf("op %d mutate re-query: HTTP %v, cold recompute %v", k, op.selected, cold)
			}
		}
	case classGame:
		st, err := r.request(k, root, op.text)
		if err != nil {
			return err
		}
		var holds bool
		if err := r.tr.do(k, root, "game", func() error {
			b := &stage.Budget{MaxGamePositions: math.MaxInt64 / 4}
			res, err := sess.Eval(stage.WithBudget(ctx, b), r.phiGame, "", core.Options{Decision: true, Backend: "game"})
			if err != nil {
				return err
			}
			holds = res.Holds
			r.st.positions += b.GamePositionsUsed()
			return nil
		}); err != nil {
			return err
		}
		r.st.gameOps++
		if holds != op.holds {
			r.wrongf("op %d game: HTTP %v, in-process %v", k, op.holds, holds)
		}
		check = func() {
			want, err := mso.SentenceCtx(ctx, st, r.phiGame, nil)
			if err != nil {
				r.wrongf("op %d: naive checker: %v", k, err)
			} else if want != op.holds {
				r.wrongf("op %d game: HTTP %v, cold recompute %v", k, op.holds, want)
			}
		}
	case classSolve:
		st, err := r.request(k, root, op.text)
		if err != nil {
			return err
		}
		var v int
		if err := r.tr.do(k, root, "solver.solve", func() (err error) {
			v, err = r.solve(ctx, sess, op.problem)
			return err
		}); err != nil {
			return err
		}
		got := op.solveVal
		if op.problem == "threecol" && op.solveOK {
			got = 1
		}
		if v != got {
			r.wrongf("op %d solve %s: HTTP %d, in-process %d", k, op.problem, got, v)
		}
		check = func() {
			g := graph.Primal(st)
			var cold int
			if op.problem == "threecol" {
				ok, err := threecol.Decide(g)
				if err != nil {
					r.wrongf("op %d: cold threecol: %v", k, err)
					return
				}
				if ok {
					cold = 1
				}
			} else if cold, err = vcover.MinVertexCover(g); err != nil {
				r.wrongf("op %d: cold vcover: %v", k, err)
				return
			}
			if cold != got {
				r.wrongf("op %d solve %s: HTTP %d, cold recompute %d", k, op.problem, got, cold)
			}
		}
	}
	r.tr.end(root)
	wall := time.Since(t0)
	// One HTTP request per op; a mutate op sends the edit and its re-query.
	r.st.requests++
	if op.class == classMutate {
		r.st.requests++
	}
	r.st.wall += wall
	r.st.opWall[op.class.String()] = append(r.st.opWall[op.class.String()], float64(wall)/1e6)
	if check != nil {
		check()
	}
	return nil
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// serveLayers computes the per-layer metrics of serve-mixed from the
// HTTP run, the /statsz counters around it, and the two replays.
func serveLayers(samples []sample, before, after *server.StatszResponse, plain, traced *replayStats) map[string]float64 {
	m := zeroLayers()
	tot := layerTotals(traced.spans, func(s span) bool { return s.Parent >= 0 })
	reqs := float64(traced.requests)
	m["structure.parse_ms_per_req"] = ratio(ms(tot["structure.parse"]), reqs)
	m["session.fingerprint_ms_per_req"] = ratio(ms(tot["session.fingerprint"]), reqs)
	// An op's root span is named after its class.
	var evalHits, mutates []float64
	for _, s := range traced.spans {
		switch {
		case s.Layer == "session.eval" && traced.spans[s.Parent].Layer == "eval":
			evalHits = append(evalHits, ms(s.dur()))
		case s.Layer == "session.mutate":
			mutates = append(mutates, ms(s.dur()))
		}
	}
	m["session.eval_hit_ms"] = median(evalHits)
	dHits := after.SessionTotals.ResultCacheHits - before.SessionTotals.ResultCacheHits
	dEvals := after.SessionTotals.Evals - before.SessionTotals.Evals
	m["session.result_hit_share"] = ratio(float64(dHits), float64(dHits+dEvals))
	m["session.mutate_ms"] = median(mutates)
	m["session.delta_share"] = ratio(float64(traced.deltas), float64(traced.mutates))
	httpP50 := classP50(samples)
	for _, c := range serveClassNames {
		m["server."+c+"_p50_ms"] = httpP50[c]
		name := "server." + c + "_overhead_ms"
		if c == "eval" {
			name = "server.overhead_ms"
		}
		m[name] = httpP50[c] - median(traced.opWall[c])
	}
	m["game.ms_per_op"] = ratio(ms(tot["game"]), float64(traced.gameOps))
	m["game.positions_per_op"] = ratio(float64(traced.positions), float64(traced.gameOps))
	m["solver.solve_ms_per_op"] = ratio(ms(tot["solver.solve"]), float64(traced.solves))
	m["solver.cache_hit_share"] = ratio(float64(traced.solveHits), float64(traced.solves))
	dAdmitted := after.Admission.Admitted - before.Admission.Admitted
	dShed := after.Admission.Shed - before.Admission.Shed
	m["overload.shed_share"] = ratio(float64(dShed), float64(dAdmitted+dShed))
	m["overload.limit_final"] = float64(after.Admission.Limit)
	var spanSum time.Duration
	for _, d := range tot {
		spanSum += d
	}
	var httpSum int64
	for _, s := range samples {
		if s.ok {
			httpSum += s.ns
		}
	}
	m["bench.layer_coverage"] = ratio(float64(spanSum), float64(httpSum))
	m["bench.trace_overhead_share"] = ratio(float64(traced.wall), float64(plain.wall)) - 1
	return m
}
