// Command perfbench is the repository's end-to-end benchmark. One
// invocation measures one workload:
//
//	perfbench --workload reproduce|sweep-cold|sweep-warm|serve-jobs \
//	          --seed N --seconds S --trace 0|1
//
// It runs from the root of a checkout (perfbench/run.sh builds it and
// execs it there). The process started by the user is the orchestrator:
// it re-executes itself as a child that runs the workload, so the
// child's peak resident memory is the workload's alone. With --trace 0
// the child measures untraced samples and the last line of standard
// output is the end-to-end result; with --trace 1 an untraced child and
// then a traced child run, and the result carries the per-layer metrics
// plus the tracing overhead. Every line before the last is a
// human-readable report.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// opts are the arguments one run of the benchmark takes.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	short    bool // the reduced workload the tests use
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", 25, "measurement time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root holding go.mod and results_all.txt")
	child := fs.Bool("child", false, "internal: run the workload in this process")
	setupOnly := fs.Bool("setup-only", false, "internal: with -child, set up, report ready and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q; known: %v", *workload, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1 (got %d)", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: absRoot}
	if *child {
		rep, err := runChild(o, *setupOnly, stdout)
		if err != nil || rep == nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(rep)
	}
	res, err := orchestrate(o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// metric is one reported value with its unit.
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

// childReport is what a child process sends its orchestrator.
type childReport struct {
	Samples  []sampleReport     `json:"samples"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Shares   []layerShare       `json:"shares,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// sampleReport is one timed sample: a fixed amount of the workload's
// work. Tasks is the number of engine tasks a sweep ran (a gang replay
// batch is one); a traced sample must run as many as an untraced one,
// which ties the benchmark's traced engine to the suite's scheduling.
type sampleReport struct {
	WallS      float64   `json:"wall_s"`
	AllocBytes uint64    `json:"alloc_bytes"`
	Ops        int       `json:"ops"`
	Failed     int       `json:"failed"`
	Evals      int       `json:"evals"`
	Tasks      int       `json:"tasks"`
	LatencyS   []float64 `json:"latency_s"`
	Sim        simStats  `json:"sim"`
}

// readyLine is the first line a child prints, as soon as its set-up is
// done; the orchestrator times set-up from the child's start to it.
const readyLine = "ready"

// runChild sets the workload up in this process and, unless setupOnly,
// measures it. The report is nil when setupOnly.
func runChild(o opts, setupOnly bool, stdout io.Writer) (*childReport, error) {
	w := workloads[o.workload](o)
	err := w.setup()
	defer w.teardown()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	fmt.Fprintln(stdout, readyLine)
	if setupOnly {
		return nil, nil
	}
	rep := &childReport{}
	if o.trace {
		// Pairs of samples on the traced path, one of each pair with
		// recording off, in alternating order: the median difference is
		// the cost of tracing alone. The layer metrics are the last traced
		// sample's.
		var tr *tracer
		var overhead []float64
		for i := 0; i < tracePairs; i++ {
			var pair [2]sampleReport
			for j := range pair {
				rec := (i+j)%2 == 1
				t := offTracer()
				if rec {
					tr = newTracer()
					t = tr
				}
				s, err := measure(w, t)
				if err != nil {
					return nil, err
				}
				pair[b2i(rec)] = s
			}
			rep.Samples = append(rep.Samples, pair[:]...)
			overhead = append(overhead, pair[1].WallS-pair[0].WallS)
		}
		rep.Layers = tr.layerMetrics()
		rep.Layers["trace.overhead_s"] = median(overhead)
		rep.Shares = tr.shares()
		rep.Problems = w.problems()
		return rep, nil
	}

	// Samples repeat until the run has lasted --seconds and holds enough
	// per-operation latencies for the 90th percentile to have ten beyond
	// it.
	start := time.Now()
	lats := 0
	for {
		s, err := measure(w, nil)
		if err != nil {
			return nil, err
		}
		rep.Samples = append(rep.Samples, s)
		lats += len(s.LatencyS)
		if time.Since(start).Seconds() >= o.seconds && lats >= minLatencies {
			break
		}
	}
	rep.Problems = w.problems()
	return rep, nil
}

// minLatencies is the fewest per-operation latencies an untraced run
// collects.
const minLatencies = 100

// tracePairs is how many untraced/traced sample pairs a traced child
// runs to measure the tracing overhead.
const tracePairs = 3

// measure runs one sample after a collection, so garbage left by
// set-up or an earlier sample is not charged to it.
func measure(w workload, tr *tracer) (sampleReport, error) {
	runtime.GC()
	return w.sample(tr)
}

// spawn runs one child process and returns its report (nil for a
// set-up-only child), its peak resident memory in MiB, and the seconds
// from its start until its set-up was done.
func spawn(o opts, trace, setupOnly bool) (*childReport, float64, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-root", o.root, fmt.Sprintf("-trace=%d", b2i(trace)),
		fmt.Sprintf("-setup-only=%v", setupOnly)}
	cmd := exec.Command(exe, args...)
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	br := bufio.NewReader(pipe)
	first, rerr := br.ReadString('\n')
	ready := time.Since(t0).Seconds()
	rest, _ := io.ReadAll(br)
	if err := cmd.Wait(); err != nil {
		return nil, 0, 0, fmt.Errorf("%s child: %w", o.workload, err)
	}
	if rerr != nil || strings.TrimSpace(first) != readyLine {
		return nil, 0, 0, fmt.Errorf("%s child: no ready line (got %q)", o.workload, first)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if setupOnly {
		return nil, rss, ready, nil
	}
	var rep childReport
	if err := json.Unmarshal(lastLine(rest), &rep); err != nil {
		return nil, 0, 0, fmt.Errorf("%s child: bad report: %w", o.workload, err)
	}
	return &rep, rss, ready, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// orchestrate runs the child processes for one benchmark run and
// assembles the result line.
func orchestrate(o opts, stdout io.Writer) (*result, error) {
	// Set-up is timed in several processes so that its median is steady:
	// set-up-only children first, then the measuring one.
	var setups []float64
	if !o.trace {
		for i := 1; i < workloads[o.workload](o).setups(); i++ {
			_, _, ready, err := spawn(o, false, true)
			if err != nil {
				return nil, err
			}
			setups = append(setups, ready)
		}
	}
	plain, rss, ready, err := spawn(o, false, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, ready)
	res := &result{Metrics: map[string]metric{}}
	var failed, attempted int
	for _, s := range plain.Samples {
		attempted += s.Ops
		failed += s.Failed
	}
	problems := plain.Problems
	if !o.trace {
		res.Metrics = endToEnd(plain, setups, rss)
	} else {
		traced, _, _, err := spawn(o, true, false)
		if err != nil {
			return nil, err
		}
		for _, s := range traced.Samples {
			attempted += s.Ops
			failed += s.Failed
		}
		problems = append(problems, traced.Problems...)
		// Every sample on the traced path must simulate exactly what the
		// untraced run did, and run the same engine tasks.
		want := plain.Samples[0]
		check := func(kind string, ss []sampleReport) {
			for i, s := range ss {
				if s.Sim != want.Sim {
					problems = append(problems, fmt.Sprintf("%s %d: simulated statistics %+v differ from %+v", kind, i, s.Sim, want.Sim))
					failed++
				}
				if s.Tasks != want.Tasks {
					problems = append(problems, fmt.Sprintf("%s %d: %d engine tasks, not %d", kind, i, s.Tasks, want.Tasks))
					failed++
				}
			}
		}
		check("untraced sample", plain.Samples)
		check("traced-path sample", traced.Samples)
		layers := traced.Layers
		last := traced.Samples[len(traced.Samples)-1]
		for k, v := range last.Sim.metrics() {
			layers[k] = v
		}
		for _, name := range perLayerNames() {
			res.Metrics[name.name] = metric{Value: layers[name.name], Unit: name.unit}
		}
		printShares(stdout, o.workload, traced.Shares)
		for i, s := range traced.Samples {
			fmt.Fprintf(stdout, "traced-path sample %d (recording %v): wall %.4f s\n", i, i%2 == 1, s.WallS)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "problem:", p)
	}
	res.Attempted = attempted
	res.Failed = failed
	res.Correct = failed == 0 && len(problems) == 0 && attempted > 0
	for i, s := range plain.Samples {
		fmt.Fprintf(stdout, "sample %d: wall %.4f s, %d operations\n", i, s.WallS, s.Ops)
	}
	printReport(stdout, o, res)
	return res, nil
}

// endToEnd computes the metrics a user of the system sees from an
// untraced child's report.
func endToEnd(rep *childReport, setupS []float64, rssMiB float64) map[string]metric {
	var lat []float64
	var allocs []float64
	var evals int
	var wall float64
	for _, s := range rep.Samples {
		lat = append(lat, s.LatencyS...)
		allocs = append(allocs, float64(s.AllocBytes)/(1<<20))
		evals += s.Evals
		wall += s.WallS
	}
	sort.Float64s(lat)
	return map[string]metric{
		"wall_s":      {median(sampleWalls(rep)), "s"},
		"sims_per_s":  {float64(evals) / wall, "1/s"},
		"job_p50_s":   {quantile(lat, 0.50), "s"},
		"job_p90_s":   {quantile(lat, 0.90), "s"},
		"setup_s":     {median(setupS), "s"},
		"alloc_mb":    {median(allocs), "MiB"},
		"peak_rss_mb": {rssMiB, "MiB"},
	}
}

func sampleWalls(rep *childReport) []float64 {
	var out []float64
	for _, s := range rep.Samples {
		out = append(out, s.WallS)
	}
	return out
}

func printReport(w io.Writer, o opts, res *result) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "perfbench %s seed=%d seconds=%g trace=%v go=%s GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(bw, "  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(bw, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
