package session

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
)

// progKey identifies a compiled program: the formula's canonical
// rendering plus every Options field that influences compilation. Two
// structurally identical formulas hash to the same key even when built
// as distinct ASTs.
type progKey struct {
	sig      string
	formula  string
	xVar     string
	backend  string
	width    int
	depth    int
	decision bool
	maxDom   int
	maxTypes int
	maxEDB   int
	budget   int64
}

func keyFor(sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) progKey {
	sigKey := ""
	for _, p := range sig.Predicates() {
		sigKey += p.Name + "/" + strconv.Itoa(p.Arity) + ";"
	}
	return progKey{
		sig:      sigKey,
		formula:  phi.String(),
		xVar:     xVar,
		backend:  opts.BackendName(),
		width:    opts.Width,
		depth:    opts.QuantifierDepth,
		decision: opts.Decision,
		maxDom:   opts.MaxWitnessDomain,
		maxTypes: opts.MaxTypes,
		maxEDB:   opts.MaxEDBSubsets,
		budget:   opts.EvalBudget,
	}
}

// progCacheCap is the default FIFO bound on cached compiled programs.
// Compiled programs are a few KB each; the cap keeps an adversarial
// stream of distinct formulas from growing the shared cache without
// bound while comfortably covering any realistic working set.
const progCacheCap = 512

// ProgramCache memoizes MSO-to-datalog compilations per (formula,
// width, options), bounded FIFO. It is safe for concurrent use; the
// lock is held for lookups and inserts only, compilation runs outside
// it, and concurrent requests for the same key share one in-flight
// compilation while requests for cached keys are served immediately. A
// compiled program is immutable and shared by every session that
// evaluates the same query, regardless of structure.
type ProgramCache struct {
	mu      sync.Mutex
	cap     int
	m       map[progKey]*core.Compiled
	order   []progKey
	flights map[progKey]*compileFlight
	hits    int
	misses  int
}

// compileFlight is one in-flight compilation shared by every request
// for the same key while it runs.
type compileFlight struct {
	done chan struct{}
	c    *core.Compiled
	err  error
}

// NewProgramCache returns an empty cache with the default capacity.
func NewProgramCache() *ProgramCache {
	return NewProgramCacheSize(progCacheCap)
}

// NewProgramCacheSize returns an empty cache evicting FIFO beyond n
// entries (n <= 0 means the default capacity).
func NewProgramCacheSize(n int) *ProgramCache {
	if n <= 0 {
		n = progCacheCap
	}
	return &ProgramCache{cap: n, m: map[progKey]*core.Compiled{}}
}

// defaultProgramCache backs every session that is not given its own
// cache, so compiled programs are shared across structures.
var defaultProgramCache = NewProgramCache()

// Get returns the compiled program for the key, compiling on a miss.
// The bool result reports whether it was served without compiling in
// this call (a cache hit or a share of another request's in-flight
// compilation). If an in-flight leader fails, waiters with live
// contexts retry the compilation themselves.
func (pc *ProgramCache) Get(ctx context.Context, sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) (*core.Compiled, bool, error) {
	key := keyFor(sig, phi, xVar, opts)
	for {
		pc.mu.Lock()
		if c, ok := pc.m[key]; ok {
			pc.hits++
			pc.mu.Unlock()
			return c, true, nil
		}
		if f := pc.flights[key]; f != nil {
			pc.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				pc.mu.Lock()
				pc.hits++
				pc.mu.Unlock()
				return f.c, true, nil
			}
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			continue
		}
		if pc.flights == nil {
			pc.flights = map[progKey]*compileFlight{}
		}
		f := &compileFlight{done: make(chan struct{})}
		pc.flights[key] = f
		pc.mu.Unlock()

		c, err := compileSafe(ctx, sig, phi, xVar, opts)

		pc.mu.Lock()
		delete(pc.flights, key)
		// A failed compilation is a miss too, but it is not cached:
		// the next Get for the key compiles again.
		pc.misses++
		if err == nil {
			pc.put(key, c)
		}
		pc.mu.Unlock()
		f.c, f.err = c, err
		close(f.done)
		return c, false, err
	}
}

// compileSafe compiles outside the cache lock, recovering a panic into
// a stage-tagged error so the caller's flight bookkeeping always runs.
func compileSafe(ctx context.Context, sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) (c *core.Compiled, err error) {
	defer stage.RecoverTo(stage.Compile, &err)
	return core.CompileCtx(ctx, sig, phi, xVar, opts)
}

// put inserts under pc.mu, evicting the oldest entry beyond the cap.
func (pc *ProgramCache) put(key progKey, c *core.Compiled) {
	if _, dup := pc.m[key]; !dup {
		if len(pc.order) >= pc.cap {
			delete(pc.m, pc.order[0])
			pc.order = pc.order[1:]
		}
		pc.order = append(pc.order, key)
	}
	pc.m[key] = c
}

// Shed drops every cached program and returns how many were released,
// keeping hit/miss counters and in-flight compilations intact. The
// server's memory watchdog calls it as the second shedding tier;
// subsequent Gets recompile (or re-enter the cache from a flight
// completing after the shed).
func (pc *ProgramCache) Shed() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := len(pc.m)
	pc.m = map[progKey]*core.Compiled{}
	pc.order = nil
	return n
}

// Stats reports hit/miss counts. A miss is a Get that compiled, whether
// or not the compilation succeeded; a Get whose context ends while it
// waits on another's compilation counts as neither.
func (pc *ProgramCache) Stats() (hits, misses int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// Len returns the number of cached programs.
func (pc *ProgramCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.m)
}

// Cap returns the cache's FIFO capacity.
func (pc *ProgramCache) Cap() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.cap
}

// timeNow is a seam kept in one place so stage timing in this package
// is easy to audit.
func timeNow() time.Time { return time.Now() }
