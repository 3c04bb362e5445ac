package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// sample is one timed op of the untraced run.
type sample struct {
	class string
	n     int   // input size |A|
	ns    int64 // wall time of the op's library or HTTP calls
	ok    bool
}

// opSeed derives op i's input seed from the workload seed (splitmix64),
// so any op's input can be rebuilt for the traced replay.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latenciesMS returns the sorted latencies, in ms, of the completed
// samples that keep reports true.
func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && keep(s) {
			out = append(out, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func all(sample) bool { return true }

// endToEnd computes the end-to-end metrics of an untraced run. busy is
// the time base of the rates: the summed op time for a single caller
// (input generation and answer checks between ops excluded), the
// measured wall window for concurrent clients. allocBytes is the heap
// allocated by the ops. Latency percentiles cover completed ops;
// failures show in ok_share. A run calls it twice: with its times as
// measured, and with them stated at the nominal host speed (see hostRef).
func endToEnd(samples []sample, setups []float64, busy time.Duration, allocBytes uint64, tail float64) map[string]float64 {
	var ok, elems int
	for _, s := range samples {
		if s.ok {
			ok++
			elems += s.n
		}
	}
	lat := latenciesMS(samples, all)
	return map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       float64(len(samples)) / busy.Seconds(),
		"elems_per_s":     float64(elems) / busy.Seconds(),
		"latency_p50_ms":  quantile(lat, 0.5),
		"latency_tail_ms": quantile(lat, tail),
		"ok_share":        float64(ok) / float64(len(samples)),
		"alloc_mb_per_op": float64(allocBytes) / float64(len(samples)) / (1 << 20),
	}
}

// hostRef is the host-speed reference. On a shared host the same code
// runs up to twice as fast at one time as at another (clock rate, and
// neighbours contending for cores, caches and memory), and the speed
// drifts within seconds to minutes; it moves every wall time of a run
// together. hostRef times a fixed piece of work that lies outside the
// library, interleaved with a run's ops, so that the run's times can be
// stated at a nominal host speed: t × refNominalMS / r, where r is the
// reference's time around t (see singleCaller and serveOp.factor). The
// work is map inserts and probes, an in-place sort and a pointer chase
// over about 2 MB — the access mix of grounding and of the DP tables —
// and it allocates nothing after construction, so no garbage collection
// lands in it and nothing the program leaves on the heap changes its
// time.
type hostRef struct {
	keys  []uint64
	next  []int32
	table map[uint64]int32
	ms    []float64 // each timed call
	sum   uint64    // the work's checksum, the same on every call
}

const refN = 1 << 16

// refNominalMS is the reference work's median time on a quiet host
// (Intel Xeon, 2 vCPUs, Go 1.24): the speed end-to-end times are stated
// at.
const refNominalMS = 8.5

func newHostRef() *hostRef {
	r := &hostRef{
		keys:  make([]uint64, refN),
		next:  make([]int32, refN),
		table: make(map[uint64]int32, refN),
		ms:    make([]float64, 0, 1<<12),
	}
	perm := rand.New(rand.NewSource(1)).Perm(refN)
	for i, p := range perm {
		r.next[p] = int32(perm[(i+1)%refN])
	}
	r.sum = r.work()
	return r
}

// work does the reference work once and returns its checksum.
func (r *hostRef) work() uint64 {
	clear(r.table)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range r.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.keys[i] = x
		r.table[x>>44] = int32(i)
	}
	var sum uint64
	for _, k := range r.keys {
		sum += uint64(r.table[(k>>44)^1])
	}
	slices.Sort(r.keys)
	p := int32(0)
	for range r.keys {
		p = r.next[p]
		sum += r.keys[p]
	}
	return sum
}

// sample times the reference work once and returns the time in ms.
func (r *hostRef) sample() float64 {
	t0 := time.Now()
	sum := r.work()
	ms := float64(time.Since(t0)) / 1e6
	r.ms = append(r.ms, ms)
	if sum != r.sum {
		panic("perfbench: the host reference work changed its result")
	}
	return ms
}

// medianMS is the reference work's median time in this run.
func (r *hostRef) medianMS() float64 { return median(r.ms) }

// bracket returns the factor that states a time at the nominal host
// speed, given the reference's times just before and just after it.
func bracket(nominal, before, after float64) float64 { return 2 * nominal / (before + after) }

// scaleSamples returns samples with each op's time multiplied by its
// factor, and the sum of the scaled times.
func scaleSamples(samples []sample, factors []float64) ([]sample, time.Duration) {
	out := make([]sample, len(samples))
	var sum time.Duration
	for i, s := range samples {
		s.ns = int64(float64(s.ns) * factors[i])
		out[i] = s
		sum += time.Duration(s.ns)
	}
	return out, sum
}

// zeroLayers returns every per-layer metric at zero: a workload fills
// in the layers it exercises, and the rest do no work on it.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for n := range layerUnits {
		m[n] = 0
	}
	return m
}

// measured reports whether a single-caller run has measured for
// cfg.seconds: in wall time, or, when traced replays interleave with the
// untraced ops, in the untraced ops' summed time, so that the replay
// covers as many ops as an untraced run measures.
func measured(cfg config, start time.Time, busy time.Duration) bool {
	if cfg.trace {
		return busy.Seconds() >= cfg.seconds
	}
	return time.Since(start).Seconds() >= cfg.seconds
}

// settle collects the garbage earlier ops, input generation and answer
// checks left behind, so that no timed op pays for another's
// allocations, and returns the cumulative heap allocation.
func settle() uint64 {
	runtime.GC()
	return totalAlloc()
}

// totalAlloc reads the cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sumNS is the summed op time of samples.
func sumNS(samples []sample) int64 {
	var sum int64
	for _, s := range samples {
		sum += s.ns
	}
	return sum
}

// singleCaller returns the end-to-end metrics of a single caller's run,
// at the nominal host speed and as measured. A single caller samples ref
// before every op, and every time of the run is scaled by the
// reference's median over the run: a sample taken while the garbage
// collector still works off an earlier op's heap reads slow, and scaling
// each op by its neighbouring samples let such outliers move the median
// op by a fifth between runs.
func singleCaller(samples []sample, ref *hostRef, setups []float64, busy time.Duration, allocBytes uint64, tail float64) (scaled, raw map[string]float64) {
	f := refNominalMS / ref.medianMS()
	factors := make([]float64, len(samples))
	scaledSetups := make([]float64, len(setups))
	for i := range factors {
		factors[i] = f
	}
	for i, s := range setups {
		scaledSetups[i] = s * f
	}
	ss, _ := scaleSamples(samples, factors)
	scaledBusy := time.Duration(float64(busy) * f)
	return endToEnd(ss, scaledSetups, scaledBusy, allocBytes, tail), endToEnd(samples, setups, busy, allocBytes, tail)
}

// medianSetup runs setup reps times and returns each duration in
// seconds together with the last set-up state, which the run then uses.
// Each rep starts after the previous rep's state is dropped and
// collected, so every rep sets up from the same heap.
func medianSetup[T any](reps int, setup func() (T, error)) ([]float64, T, error) {
	var secs []float64
	var last, none T
	for i := 0; i < reps; i++ {
		last = none
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return nil, last, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return secs, last, nil
}

// setupReps is how many times a single-caller workload sets up per run;
// setup_s is the median.
const setupReps = 5

// span is one timed call into a layer during the traced replay. Spans
// of one op share Op; Parent indexes the enclosing span (-1 for the
// op's root span).
type span struct {
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps the replay's spans in memory until the run ends. A nil
// tracer records nothing, so the untraced replays share its call sites.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span and returns its index.
func (t *tracer) begin(op int, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Layer: layer, Parent: parent, StartNS: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = int64(time.Since(t.origin))
}

// do runs fn inside a span of layer under parent.
func (t *tracer) do(op, parent int, layer string, fn func() error) error {
	i := t.begin(op, layer, parent)
	err := fn()
	t.end(i)
	return err
}

// layerTotals sums span durations per layer over the spans accepted by
// keep.
func layerTotals(spans []span, keep func(span) bool) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if keep(s) {
			out[s.Layer] += s.dur()
		}
	}
	return out
}

func anySpan(span) bool { return true }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the replay's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
