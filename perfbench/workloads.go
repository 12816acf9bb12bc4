package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

// workload is one set of inputs the benchmark runs. setup prepares
// state the timed phase needs and teardown removes it; sample performs
// one fixed amount of timed work and checks its output.
type workload interface {
	// setups is how many processes time the set-up in one run.
	setups() int
	setup() error
	sample(tr *tracer) (sampleReport, error)
	teardown()
	problems() []string
}

var workloads = map[string]func(opts) workload{
	"reproduce":  newReproduce,
	"sweep-cold": func(o opts) workload { return newSweep(o, false) },
	"sweep-warm": func(o opts) workload { return newSweep(o, true) },
	"serve-jobs": newServeJobs,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cheapSetups is how many processes a workload with a quick set-up
// starts per run to time its set-up; the median of several start-ups is
// steady where one is not.
const cheapSetups = 51

// storeSetups is the same for the workloads whose set-up fills a store
// (a cold sweep of several seconds).
const storeSetups = 5

// workers is the engine concurrency every workload uses: one per CPU.
func workers() int { return runtime.NumCPU() }

// sweepSelection is the dse.Restrict selection of the proposal space
// both sweep workloads evaluate: all four front ends, 2 Kbit rows, 2 or
// 4 banks, read latency 4 cycles, write latency 1 or 2 cycles — 16
// design points plus the shared SRAM reference over all 16 benchmarks.
func sweepSelection() map[string][]string {
	return map[string][]string{
		"front-end":     {"direct", "vwb", "l0", "emshr"},
		"rows":          {"2Kbit"},
		"banks":         {"2bank", "4bank"},
		"read-latency":  {"read=4cy"},
		"write-latency": {"write=1cy", "write=2cy"},
	}
}

// sweepCSVDigest is the SHA-256 of the full sweep's CSV (sweepCSV over
// sweepSelection and all benchmarks), recorded from the seed program.
const sweepCSVDigest = "b3589ee01aa49dd180702fcb57bb0c8ea64ef9bc52168e67ac96da8bd558661c"

// shortSweepCSVDigest is the same for the reduced sweep the tests run
// (shortBenches only).
const shortSweepCSVDigest = "078b1bdd5f4829b81266797800862e70f35fe4d10a45328034094dab20372c24"

// sweepCSV renders an evaluation's points table the way the sweep
// service returns it.
func sweepCSV(space string, points stats.Table) string {
	return "# dse-" + space + "\n" + points.CSV() + "\n"
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// timer measures the timed part of a sample: wall time and bytes
// allocated.
type timer struct {
	t0 time.Time
	m0 runtime.MemStats
}

func (t *timer) start() {
	runtime.ReadMemStats(&t.m0)
	t.t0 = time.Now()
}

func (t *timer) stop(s *sampleReport) {
	s.WallS = time.Since(t.t0).Seconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	s.AllocBytes = m1.TotalAlloc - t.m0.TotalAlloc
}

// simStats are exact simulated counts summed over the evaluations a
// sample answers; a change that only speeds up the simulator leaves
// them identical.
type simStats struct {
	Cycles           int64  `json:"cycles"`
	Insts            uint64 `json:"insts"`
	DL1Accesses      uint64 `json:"dl1_accesses"`
	DL1Misses        uint64 `json:"dl1_misses"`
	DL1BankConflicts int64  `json:"dl1_bank_conflict_cycles"`
	FEHits           uint64 `json:"fe_hits"`
	L2Misses         uint64 `json:"l2_misses"`
}

func (s *simStats) add(r *sim.RunResult) {
	s.Cycles += r.CPU.Cycles
	s.Insts += r.CPU.Insts
	s.DL1Accesses += r.DL1Stats.Accesses()
	s.DL1Misses += r.DL1Stats.Misses()
	s.DL1BankConflicts += r.DL1BankConflictCycles
	s.FEHits += r.FEStats.ReadHits + r.FEStats.WriteHits
	s.L2Misses += r.L2Stats.Misses()
}

func (s simStats) metrics() map[string]float64 {
	return map[string]float64{
		"sim.cycles":                     float64(s.Cycles),
		"sim.insts":                      float64(s.Insts),
		"cache.dl1_accesses":             float64(s.DL1Accesses),
		"cache.dl1_misses":               float64(s.DL1Misses),
		"cache.dl1_bank_conflict_cycles": float64(s.DL1BankConflicts),
		"core.fe_hits":                   float64(s.FEHits),
		"cache.l2_misses":                float64(s.L2Misses),
	}
}

// evalStats sums the simulated statistics of every (bench, config) an
// evaluation consumed, each distinct pair once, read back from the
// engine's memo.
func evalStats(eng dse.Engine, benches []polybench.Bench, ev *dse.Evaluation) (simStats, error) {
	var s simStats
	seen := map[string]bool{}
	for _, p := range ev.Points {
		for _, cfg := range []sim.Config{p.Point.Config, ev.Space.BaselineFor(p.Point.Config)} {
			k := sim.CanonicalKey(cfg)
			if seen[k] {
				continue
			}
			seen[k] = true
			for _, b := range benches {
				r, err := eng.Run(b, cfg)
				if err != nil {
					return s, err
				}
				s.add(r)
			}
		}
	}
	return s, nil
}

// scratchDir makes a fresh directory under the checkout's build
// directory, the only place the benchmark writes.
func scratchDir(root, pattern string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o777); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// ---- reproduce ----

// reproduce regenerates every registered experiment on a fresh suite,
// as `sttexplore run all` does, and checks the output against
// results_all.txt byte for byte. An operation is one simulation.
type reproduce struct {
	o        opts
	runners  []experiments.Runner
	expected []byte
	probs    []string
}

func newReproduce(o opts) workload { return &reproduce{o: o} }

func (w *reproduce) setups() int        { return cheapSetups }
func (w *reproduce) problems() []string { return w.probs }
func (w *reproduce) teardown()          {}

func (w *reproduce) setup() error {
	golden, err := os.ReadFile(filepath.Join(w.o.root, "results_all.txt"))
	if err != nil {
		return err
	}
	w.runners = experiments.Registry()
	w.expected = golden
	if w.o.short {
		// table1 and fig1 are the first two artifacts, so their output
		// is a prefix of the golden file.
		w.runners = w.runners[:2]
	}
	return nil
}

func (w *reproduce) sample(tr *tracer) (sampleReport, error) {
	var rep sampleReport
	s := experiments.NewSuiteJobs(nil, workers())
	var obs runnerObs
	s.SetProgress(obs.observe)
	var out bytes.Buffer
	var t timer
	t.start()
	root := tr.begin("bench.sample", 0)
	runners := w.runners
	if tr != nil {
		runners = tracedRunners(tr, root, runners)
	}
	err := experiments.RunRunners(context.Background(), s, runners, &out)
	tr.end(root)
	t.stop(&rep)
	ops, lat := obs.result()
	// Tasks stay 0: which simulations share a gang batch depends on how
	// the concurrent runners interleave.
	rep.Ops, rep.Evals, rep.LatencyS = ops, ops, lat
	if tr != nil {
		obs.record(tr, rep.WallS, workers())
		// With no store, every simulation the engine executed is one
		// timing replay.
		tr.set("sim.replays", float64(ops))
	}
	if err != nil {
		return rep, err
	}
	want := w.expected
	if w.o.short {
		want = want[:min(len(want), out.Len())]
	}
	if !bytes.Equal(out.Bytes(), want) {
		rep.Failed = rep.Ops
		w.probs = append(w.probs, "reproduce: output differs from results_all.txt")
	}
	return rep, nil
}

// tracedRunners wraps each registry runner in an experiments span and
// its rendering in a stats span.
func tracedRunners(tr *tracer, parent int, rs []experiments.Runner) []experiments.Runner {
	out := make([]experiments.Runner, len(rs))
	for i, r := range rs {
		r := r
		out[i] = r
		out[i].Run = func(s *experiments.Suite) (experiments.Result, error) {
			id := tr.begin("experiments."+r.ID, parent)
			res, err := r.Run(s)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			return tracedResult{Result: res, tr: tr, parent: id}, nil
		}
	}
	return out
}

// tracedResult times the rendering of one artifact.
type tracedResult struct {
	experiments.Result
	tr     *tracer
	parent int
}

func (r tracedResult) String() string {
	id := r.tr.begin("stats.render", r.parent)
	defer r.tr.end(id)
	return r.Result.String()
}

// ---- sweeps ----

// sweep evaluates sweepSelection exhaustively, cold (into an empty
// store, one sweep per sample) or warm (from a store filled in set-up,
// warmPasses fresh passes per sample — each pass a fresh suite and trace
// cache, as each CLI invocation has).
type sweep struct {
	o       opts
	warm    bool
	sp      dse.Space
	benches []polybench.Bench
	want    string // expected CSV digest
	base    string
	st      *store.Store
	probs   []string
}

const warmPasses = 4

func newSweep(o opts, warm bool) workload { return &sweep{o: o, warm: warm} }

func (w *sweep) setups() int {
	if w.warm {
		return storeSetups
	}
	return cheapSetups
}
func (w *sweep) problems() []string { return w.probs }

func (w *sweep) teardown() {
	if w.base != "" {
		os.RemoveAll(w.base)
		w.base = ""
	}
}

// shortBenches is the benchmark subset of the reduced sweep.
func shortBenches() []polybench.Bench {
	a, _ := polybench.ByName("atax")
	g, _ := polybench.ByName("gemver")
	return []polybench.Bench{a, g}
}

func (w *sweep) setup() error {
	sp, err := dse.Restrict(dse.Proposal(), sweepSelection())
	if err != nil {
		return err
	}
	w.sp, w.benches, w.want = sp, polybench.All(), sweepCSVDigest
	if w.o.short {
		w.benches, w.want = shortBenches(), shortSweepCSVDigest
	}
	if w.base, err = scratchDir(w.o.root, "sweep-*"); err != nil {
		return err
	}
	if !w.warm {
		return nil
	}
	if w.st, err = store.Open(filepath.Join(w.base, "store")); err != nil {
		return err
	}
	s := experiments.NewSuiteJobs(w.benches, workers())
	s.SetStore(w.st)
	ev, err := dse.Evaluate(s, w.benches, w.sp)
	if err != nil {
		return err
	}
	csv := sweepCSV(ev.Space.Name, ev.PointsTable())
	if digest(csv) != w.want {
		w.probs = append(w.probs, "sweep-warm: set-up CSV digest "+digest(csv)+" differs from the recorded "+w.want)
	}
	return nil
}

func (w *sweep) sample(tr *tracer) (sampleReport, error) {
	var rep sampleReport
	st := w.st
	if !w.warm {
		dir, err := os.MkdirTemp(w.base, "cold-*")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir); err != nil {
			return rep, err
		}
	}
	passes := 1
	if w.warm {
		passes = warmPasses
	}
	var obs runnerObs
	csvs := make([]string, passes)
	passLat := make([]float64, passes)
	var eng dse.Engine
	var ev *dse.Evaluation
	var t timer
	t.start()
	root := tr.begin("bench.sample", 0)
	for i := 0; i < passes; i++ {
		p0 := time.Now()
		if tr == nil {
			s := experiments.NewSuiteJobs(w.benches, workers())
			s.SetStore(st)
			s.SetProgress(obs.observe)
			eng = s
		}
		id := tr.begin("dse.evaluate", root)
		if tr != nil {
			e := newTracedEngine(tr, id, workers(), st)
			e.pool.SetProgress(obs.observe)
			eng = e
		}
		var err error
		ev, err = dse.Evaluate(eng, w.benches, w.sp)
		tr.end(id)
		if err != nil {
			return rep, err
		}
		id = tr.begin("dse.report", root)
		tab := ev.PointsTable()
		tr.end(id)
		id = tr.begin("stats.render", root)
		csvs[i] = sweepCSV(ev.Space.Name, tab)
		tr.end(id)
		passLat[i] = time.Since(p0).Seconds()
	}
	tr.end(root)
	t.stop(&rep)

	evals := len(w.benches) * len(ev.Points)
	rep.Evals = evals * passes
	// A cold operation is one evaluation, timed per engine task (one
	// simulation, or one gang replay of several); a warm operation is one
	// pass.
	rep.Ops = evals
	_, rep.LatencyS = obs.result()
	rep.Tasks = len(rep.LatencyS)
	if w.warm {
		rep.Ops, rep.LatencyS = passes, passLat
	}
	for i, csv := range csvs {
		if digest(csv) != w.want {
			w.probs = append(w.probs, fmt.Sprintf("%s pass %d: CSV digest %s differs from the recorded %s", w.name(), i, digest(csv), w.want))
			if w.warm {
				rep.Failed++
			} else {
				rep.Failed = rep.Ops
			}
		}
	}
	if tr != nil {
		obs.record(tr, rep.WallS, workers())
		rep.Failed += w.tracePareto(tr, ev, passes)
	}
	var err error
	rep.Sim, err = evalStats(eng, w.benches, ev)
	return rep, err
}

// tracePareto times dse.Ranks on its own — the benchmark recomputes
// it over the last pass's objectives and checks it against the ranks
// Evaluate assigned — and records the point and frontier counts. It
// returns the number of failed checks.
func (w *sweep) tracePareto(tr *tracer, ev *dse.Evaluation, passes int) int {
	objs := make([][]float64, len(ev.Points))
	frontier := 0
	for i, p := range ev.Points {
		objs[i] = p.Obj.Vector()
		if p.Rank == 0 {
			frontier++
		}
	}
	tr.set("dse.points", float64(len(ev.Points)*passes))
	tr.set("dse.frontier", float64(frontier*passes))
	id := tr.begin("dse.pareto", 0)
	ranks := dse.Ranks(objs)
	tr.end(id)
	for i, r := range ranks {
		if r != ev.Points[i].Rank {
			w.probs = append(w.probs, fmt.Sprintf("dse.Ranks disagrees with Evaluate at point %d", i))
			return 1
		}
	}
	return 0
}

func (w *sweep) name() string {
	if w.warm {
		return "sweep-warm"
	}
	return "sweep-cold"
}
