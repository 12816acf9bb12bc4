package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sttdl1/internal/compile"
	"sttdl1/internal/cpu"
	"sttdl1/internal/energy"
	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/runner"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

// span is one timed call into a layer. Spans are kept in memory and
// turned into metrics when the traced sample ends.
type span struct {
	id, parent int
	name       string
	start, end time.Duration
}

// tracer records spans and counters from the benchmark's own calls
// into the program's packages; nothing inside the program is
// instrumented. A nil *tracer records nothing, and the workloads take
// their untraced path (the suite itself) for it; any non-nil tracer
// takes the traced path.
type tracer struct {
	off    bool // takes the traced path but records nothing
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// offTracer takes the same path as a tracer but records nothing, so
// that the difference between the two is the cost of recording.
func offTracer() *tracer { return &tracer{off: true} }

func (t *tracer) recording() bool { return t != nil && !t.off }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.recording() {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: now, end: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if !t.recording() {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add bumps a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// set overwrites a counter.
func (t *tracer) set(name string, v float64) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// layerOf maps a span name ("store.get") to its layer ("store").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children may overlap: they run on several
// workers).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans)+1)
	for i, s := range t.spans {
		children[s.parent] = append(children[s.parent], i)
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ivs := make([][2]time.Duration, 0, len(children[s.id]))
		for _, c := range children[s.id] {
			ivs = append(ivs, [2]time.Duration{t.spans[c].start, t.spans[c].end})
		}
		self[i] = (s.end - s.start) - covered(ivs)
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var lo, hi time.Duration = 0, -1
	for _, iv := range ivs {
		if iv[0] > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = iv[0], iv[1]
		} else if iv[1] > hi {
			hi = iv[1]
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// layerShare is one row of the self-time table.
type layerShare struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

// shares is each layer's self time and its share of all self time.
func (t *tracer) shares() []layerShare {
	self := t.selfTimes()
	by := map[string]time.Duration{}
	var total time.Duration
	for i, s := range t.spans {
		by[layerOf(s.name)] += self[i]
		total += self[i]
	}
	var out []layerShare
	for l, d := range by {
		out = append(out, layerShare{Layer: l, SelfS: d.Seconds(), Share: d.Seconds() / total.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// layerMetrics turns the recorded spans and counters into the named
// per-layer metrics (see perLayerNames).
func (t *tracer) layerMetrics() map[string]float64 {
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, s := range t.spans {
		sum[s.name] += (s.end - s.start).Seconds()
		n[s.name]++
	}
	m := map[string]float64{}
	for k, v := range t.counts {
		m[k] = v
	}
	m["compile.calls"], m["compile.s"] = n["compile.compile"], sum["compile.compile"]
	m["cpu.captures"], m["cpu.capture_s"] = n["cpu.capture"], sum["cpu.capture"]
	m["replay.digest_s"] = sum["replay.digest"]
	m["sim.replay_s"] = sum["sim.replay"]
	if m["sim.replay_s"] > 0 {
		m["sim.records_per_s"] = m["sim.replay_records"] / m["sim.replay_s"]
	}
	m["store.get_s"], m["store.put_s"] = sum["store.get"], sum["store.put"]
	m["store.puts"] = n["store.put"]
	m["energy.calls"], m["energy.s"] = n["energy.model_key"], sum["energy.model_key"]
	m["dse.pareto_s"], m["dse.report_s"] = sum["dse.pareto"], sum["dse.report"]
	m["stats.render_s"] = sum["stats.render"]
	m["experiments.s"] = 0
	for name, v := range sum {
		if layerOf(name) == "experiments" {
			m["experiments.s"] += v
		}
	}
	m["serve.submit_s"], m["serve.fetch_s"] = sum["serve.submit"], sum["serve.fetch"]
	self := t.selfTimes()
	for i, s := range t.spans {
		m[layerOf(s.name)+".self_s"] += self[i].Seconds()
	}
	return m
}

// runnerObs watches an engine's progress events: it counts executed
// tasks, keeps their latencies, and aggregates the runner-layer
// counters.
type runnerObs struct {
	c   stats.Counters
	mu  sync.Mutex
	lat []float64
}

func (o *runnerObs) observe(ev stats.RunEvent) {
	o.c.Observe(ev)
	if ev.Wall > 0 {
		o.mu.Lock()
		o.lat = append(o.lat, ev.Wall.Seconds())
		o.mu.Unlock()
	}
}

// result returns the number of completed simulations and the
// latencies of the tasks that ran (a gang batch is one task).
func (o *runnerObs) result() (int, []float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.c.Runs(), append([]float64(nil), o.lat...)
}

// record stores the runner-layer metrics of a sample of the given wall
// time on the given number of workers.
func (o *runnerObs) record(t *tracer, wallS float64, workers int) {
	busy := o.c.BusyTime().Seconds()
	t.set("runner.sims", float64(o.c.Runs()))
	t.set("runner.cached", float64(o.c.Cached()))
	t.set("runner.busy_s", busy)
	t.set("runner.max_queued", float64(o.c.MaxQueued()))
	t.set("runner.utilization", busy/(wallS*float64(workers)))
}

// variant is one compiled and captured kernel variant.
type variant struct {
	ck     *compile.Compiled
	tr     *cpu.Trace
	digest [sha256.Size]byte
}

// tracedEngine is a dse.Engine assembled in the benchmark from the
// program's public layer functions — runner pool, compile, capture,
// trace digest, store, energy model key, timing replay — so that each
// call can be timed from outside the program. It follows the
// experiments suite's evaluation path: store tier first, then gang
// replay of the misses in batches sharing one trace, then publishing
// to the store; results are identical to the suite's, which the
// benchmark checks.
type tracedEngine struct {
	tr       *tracer
	root     int
	pool     *runner.Pool[string, *sim.RunResult]
	variants *runner.Pool[string, variant]
	st       *store.Store
}

func newTracedEngine(tr *tracer, root, workers int, st *store.Store) *tracedEngine {
	return &tracedEngine{
		tr:       tr,
		root:     root,
		pool:     runner.New[string, *sim.RunResult](workers),
		variants: runner.New[string, variant](workers),
		st:       st,
	}
}

func runKey(b polybench.Bench, cfg sim.Config) string {
	return b.Name + "@" + strconv.Itoa(b.Default) + "|" + cfg.Name + "|" + sim.CanonicalKey(cfg)
}

// Run returns the memoized result for (b, cfg), evaluating it alone if
// no batch has.
func (e *tracedEngine) Run(b polybench.Bench, cfg sim.Config) (*sim.RunResult, error) {
	key := runKey(b, cfg)
	return e.pool.DoLabeled(context.Background(), key, key, func(context.Context) (*sim.RunResult, error) {
		rs, err := e.evaluate(b, []sim.Config{cfg}, e.root)
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	})
}

// Prefetch evaluates benches × cfgs in batches that share one trace,
// each batch one pool task, like the suite's gang prefetch.
func (e *tracedEngine) Prefetch(benches []polybench.Bench, cfgs ...sim.Config) error {
	type group struct {
		b    polybench.Bench
		keys []string
		cfgs map[string]sim.Config
	}
	groups := map[string]*group{}
	var order []string
	for _, cfg := range cfgs {
		for _, b := range benches {
			key := runKey(b, cfg)
			if _, done, inflight := e.pool.Peek(key); done || inflight {
				continue
			}
			gk := variantKey(b, sim.CompileOptions(cfg))
			g := groups[gk]
			if g == nil {
				g = &group{b: b, cfgs: map[string]sim.Config{}}
				groups[gk] = g
				order = append(order, gk)
			}
			if _, dup := g.cfgs[key]; !dup {
				g.cfgs[key] = cfg
				g.keys = append(g.keys, key)
			}
		}
	}
	sort.Strings(order)
	var tasks []runner.Task[string, *sim.RunResult]
	for _, gk := range order {
		g := groups[gk]
		sort.Strings(g.keys)
		// The suite's automatic gang width.
		width := 8
		if g.b.Default > 48 {
			width = 4
		}
		for lo := 0; lo < len(g.keys); lo += width {
			batch := g.keys[lo:min(lo+width, len(g.keys))]
			b := g.b
			bcfgs := make([]sim.Config, len(batch))
			for i, k := range batch {
				bcfgs[i] = g.cfgs[k]
			}
			tasks = append(tasks, runner.Task[string, *sim.RunResult]{
				Key: batch[0], Label: batch[0],
				Run: func(context.Context) (*sim.RunResult, error) {
					rs, err := e.evaluate(b, bcfgs, e.root)
					if err != nil {
						return nil, err
					}
					for i := 1; i < len(batch); i++ {
						e.pool.Publish(batch[i], batch[i], rs[i], false)
					}
					return rs[0], nil
				},
			})
		}
	}
	_, err := e.pool.Run(context.Background(), tasks)
	return err
}

// variantKey identifies one functional execution: benchmark, problem
// size and compile options.
func variantKey(b polybench.Bench, opts compile.Options) string {
	return b.Name + "@" + strconv.Itoa(b.Default) + "|" + fmt.Sprintf("%+v", opts)
}

// variantOf compiles, captures and digests b's variant under opts once.
func (e *tracedEngine) variantOf(b polybench.Bench, opts compile.Options, parent int) (variant, error) {
	return e.variants.Do(context.Background(), variantKey(b, opts), func(context.Context) (variant, error) {
		id := e.tr.begin("compile.compile", parent)
		ck, err := compile.Compile(b.Kernel(), opts)
		e.tr.end(id)
		if err != nil {
			return variant{}, err
		}
		id = e.tr.begin("cpu.capture", parent)
		tr, err := sim.CaptureTrace(ck)
		e.tr.end(id)
		if err != nil {
			return variant{}, err
		}
		e.tr.add("cpu.capture_records", float64(tr.Len()))
		id = e.tr.begin("replay.digest", parent)
		h := sha256.New()
		cw := &countingWriter{w: h}
		err = replay.Encode(cw, tr)
		v := variant{ck: ck, tr: tr}
		h.Sum(v.digest[:0])
		e.tr.end(id)
		if err != nil {
			return variant{}, err
		}
		e.tr.add("replay.encoded_mb", float64(cw.n)/(1<<20))
		return v, nil
	})
}

// evaluate answers cfgs on b: store hits first, one (gang) replay for
// the misses, then store puts.
func (e *tracedEngine) evaluate(b polybench.Bench, cfgs []sim.Config, parent int) ([]*sim.RunResult, error) {
	task := e.tr.begin("runner.task", parent)
	defer e.tr.end(task)
	v, err := e.variantOf(b, sim.CompileOptions(cfgs[0]), task)
	if err != nil {
		return nil, err
	}
	out := make([]*sim.RunResult, len(cfgs))
	keys := make([]store.Key, len(cfgs))
	var miss []int
	for i, cfg := range cfgs {
		if e.st != nil {
			id := e.tr.begin("energy.model_key", task)
			mk, err := energy.ModelKey(cfg)
			e.tr.end(id)
			if err != nil {
				return nil, err
			}
			keys[i] = store.KeyFor(b.Name+"@"+strconv.Itoa(b.Default), v.digest, sim.CanonicalKey(cfg), mk)
			id = e.tr.begin("store.get", task)
			rec, ok := e.st.Get(keys[i])
			e.tr.end(id)
			e.tr.add("store.gets", 1)
			if ok {
				e.tr.add("store.hits", 1)
				e.tr.add("store.read_mb", recordMiB(e.st, keys[i]))
				rec.Result.Config = sim.ApplyDefaults(cfg)
				out[i] = rec.Result
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) > 0 {
		systems := make([]*sim.System, len(miss))
		for j, i := range miss {
			if systems[j], err = sim.New(cfgs[i]); err != nil {
				return nil, err
			}
			passes := 2
			if cfgs[i].ColdStart {
				passes = 1
			}
			e.tr.add("sim.replay_records", float64(passes*v.tr.Len()))
		}
		id := e.tr.begin("sim.replay", task)
		var rs []*sim.RunResult
		if len(systems) == 1 {
			var r *sim.RunResult
			r, err = systems[0].ReplayCompiled(v.ck, v.tr)
			rs = []*sim.RunResult{r}
		} else {
			rs, err = sim.ReplayGang(systems, v.ck, v.tr, nil, 0)
		}
		e.tr.end(id)
		if err != nil {
			return nil, err
		}
		e.tr.add("sim.replays", float64(len(rs)))
		for j, i := range miss {
			out[i] = rs[j]
			if e.st == nil {
				continue
			}
			id := e.tr.begin("store.put", task)
			err := e.st.Put(keys[i], store.NewRecord(b.Name, b.Default, rs[j]))
			e.tr.end(id)
			if err != nil {
				return nil, err
			}
			e.tr.add("store.written_mb", recordMiB(e.st, keys[i]))
		}
	}
	return out, nil
}

// recordMiB is the on-disk size of a store entry. The path layout
// (two-hex-digit fan-out directory, hex name, .rec) is the store's.
func recordMiB(st *store.Store, k store.Key) float64 {
	name := k.String()
	fi, err := os.Stat(filepath.Join(st.Dir(), name[:2], name[2:]+".rec"))
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.w.Write(p)
}
