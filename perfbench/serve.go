package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/serve"
	"sttdl1/internal/store"
)

// jobSelections is the serve-jobs workload's job sequence: every
// selection that keeps a non-empty subset of sweepSelection's front
// ends, banks and write latencies (15 × 3 × 3 = 135, all distinct), in
// an order drawn from seed. The seed only orders the sequence, so every
// seed asks for the same total work.
func jobSelections(seed int64) []map[string][]string {
	base := sweepSelection()
	var out []map[string][]string
	for _, fe := range subsets(base["front-end"]) {
		for _, banks := range subsets(base["banks"]) {
			for _, wl := range subsets(base["write-latency"]) {
				out = append(out, map[string][]string{
					"front-end":     fe,
					"rows":          base["rows"],
					"banks":         banks,
					"read-latency":  base["read-latency"],
					"write-latency": wl,
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// subsets returns every non-empty subset of vals, each in vals' order.
func subsets(vals []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(vals); mask++ {
		var s []string
		for i, v := range vals {
			if mask&(1<<i) != 0 {
				s = append(s, v)
			}
		}
		out = append(out, s)
	}
	return out
}

// selectionKey renders a selection canonically, for distinctness checks.
func selectionKey(sel map[string][]string) string {
	var axes []string
	for a := range sel {
		axes = append(axes, a)
	}
	sort.Strings(axes)
	var b strings.Builder
	for _, a := range axes {
		fmt.Fprintf(&b, "%s=%s;", a, strings.Join(sel[a], ","))
	}
	return b.String()
}

// serveJobs runs an in-process sweep service — serve.Server's handler
// on a loopback listener with local workers — over a store filled in
// set-up; each sample starts a fresh service. One client submits the
// job sequence closed-loop: each job is
// followed on its event stream to the end, then its CSV result is
// fetched and compared with dse.Evaluate of the same selection. An
// operation is one job.
type serveJobs struct {
	o       opts
	sels    []map[string][]string
	benches []polybench.Bench
	want    []string // expected CSV per job
	points  []int    // points and frontier size per job
	front   []int

	base        string
	st          *store.Store
	srv         *serve.Server
	hs          *http.Server
	url         string
	stopWorkers context.CancelFunc
	wg          sync.WaitGroup
	client      *http.Client
	sim         simStats

	mu    sync.Mutex // guards probs, which workers append to
	probs []string
}

// workerPoll is the local workers' idle re-poll interval. It is short
// so that a job's latency measures the service's work, not the wait for
// an idle worker's next poll.
const workerPoll = 5 * time.Millisecond

func newServeJobs(o opts) workload { return &serveJobs{o: o} }

func (w *serveJobs) setups() int { return storeSetups }
func (w *serveJobs) problems() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.probs...)
}

func (w *serveJobs) setup() error {
	w.sels = jobSelections(w.o.seed)
	w.benches = polybench.All()
	if w.o.short {
		w.sels, w.benches = w.sels[:3], shortBenches()
	}
	var err error
	if w.base, err = scratchDir(w.o.root, "serve-*"); err != nil {
		return err
	}
	if w.st, err = store.Open(filepath.Join(w.base, "store")); err != nil {
		return err
	}
	// Fill the store with the whole sweep, then derive every job's
	// expected answer from the same (now memoized) suite.
	fill := experiments.NewSuiteJobs(w.benches, workers())
	fill.SetStore(w.st)
	whole, err := dse.Restrict(dse.Proposal(), sweepSelection())
	if err != nil {
		return err
	}
	wholeEv, err := dse.Evaluate(fill, w.benches, whole)
	if err != nil {
		return err
	}
	// The jobs' answers rest on these simulations.
	if w.sim, err = evalStats(fill, w.benches, wholeEv); err != nil {
		return err
	}
	w.want, w.points, w.front = nil, nil, nil
	for _, sel := range w.sels {
		sp, err := dse.Restrict(dse.Proposal(), sel)
		if err != nil {
			return err
		}
		ev, err := dse.Evaluate(fill, w.benches, sp)
		if err != nil {
			return err
		}
		w.want = append(w.want, sweepCSV(ev.Space.Name, ev.PointsTable()))
		front := 0
		for _, p := range ev.Points {
			if p.Rank == 0 {
				front++
			}
		}
		w.points = append(w.points, len(ev.Points))
		w.front = append(w.front, front)
	}

	return nil
}

// start brings up a fresh service over the filled store: a server, its
// handler on a loopback listener, and one local worker per CPU. Each
// sample gets its own, so every sample starts with empty in-memory
// memos and reads the store as a newly started service would.
func (w *serveJobs) start() error {
	var err error
	if w.srv, err = serve.New(serve.Options{Store: w.st, Jobs: workers()}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	ctx, stop := context.WithCancel(context.Background())
	w.stopWorkers = stop
	for i := 0; i < workers(); i++ {
		wk := &serve.Worker{URL: w.url, Store: w.st, Name: fmt.Sprintf("local-%d", i), Jobs: 1, Poll: workerPoll}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if err := wk.Run(ctx); err != nil {
				w.mu.Lock()
				w.probs = append(w.probs, "worker: "+err.Error())
				w.mu.Unlock()
			}
		}()
	}
	w.client = &http.Client{Timeout: 60 * time.Second}
	return nil
}

// stop drains the server, stops the workers and the listener, and waits
// for all of them to return.
func (w *serveJobs) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	w.srv.Shutdown(ctx) // workers see 503 and exit
	cancel()
	w.stopWorkers()
	w.hs.Close()
	w.wg.Wait()
	w.client.CloseIdleConnections()
}

func (w *serveJobs) teardown() {
	if w.base != "" {
		os.RemoveAll(w.base)
		w.base = ""
	}
}

// jobTimes are the client-observed phases of one job, from the arrival
// of its events.
type jobTimes struct {
	submit, firstLease, lastShard, stitching, done time.Duration
	leases, events, requeues                       int
}

func (w *serveJobs) sample(tr *tracer) (sampleReport, error) {
	var rep sampleReport
	if err := w.start(); err != nil {
		return rep, err
	}
	defer w.stop()
	s0 := w.st.Stats()
	var t timer
	t.start()
	root := tr.begin("bench.sample", 0)
	var all []jobTimes
	for i, sel := range w.sels {
		j0 := time.Now()
		got, jt, err := w.job(tr, root, sel)
		lat := time.Since(j0)
		if err != nil {
			return rep, fmt.Errorf("job %d: %w", i, err)
		}
		rep.LatencyS = append(rep.LatencyS, lat.Seconds())
		if got != w.want[i] {
			rep.Failed++
			w.mu.Lock()
			w.probs = append(w.probs, fmt.Sprintf("serve-jobs: job %d (%s) result differs from dse.Evaluate", i, selectionKey(sel)))
			w.mu.Unlock()
		}
		all = append(all, jt)
	}
	tr.end(root)
	t.stop(&rep)
	rep.Ops = len(w.sels)
	rep.Sim = w.sim
	for i := range w.sels {
		rep.Evals += w.points[i] * len(w.benches)
	}
	if tr != nil {
		var q, sh, stc float64
		var leases, events, requeues int
		for _, jt := range all {
			q += (jt.firstLease - jt.submit).Seconds()
			sh += (jt.lastShard - jt.firstLease).Seconds()
			stc += (jt.done - jt.stitching).Seconds()
			leases += jt.leases
			events += jt.events
			requeues += jt.requeues
		}
		tr.set("serve.queue_wait_s", q)
		tr.set("serve.shard_s", sh)
		tr.set("serve.stitch_s", stc)
		tr.set("serve.leases", float64(leases))
		tr.set("serve.events", float64(events))
		tr.set("serve.requeues", float64(requeues))
		s1 := w.st.Stats()
		tr.set("store.gets", float64((s1.Hits+s1.Misses)-(s0.Hits+s0.Misses)))
		tr.set("store.hits", float64(s1.Hits-s0.Hits))
		tr.set("store.puts", float64(s1.Writes-s0.Writes))
		points, front := 0, 0
		for i := range w.sels {
			points += w.points[i]
			front += w.front[i]
		}
		tr.set("dse.points", float64(points))
		tr.set("dse.frontier", float64(front))
	}
	return rep, nil
}

// job submits one selection, follows its event stream to the terminal
// event, and fetches the CSV result.
func (w *serveJobs) job(tr *tracer, root int, sel map[string][]string) (string, jobTimes, error) {
	var jt jobTimes
	t0 := time.Now()
	body, err := json.Marshal(serve.JobRequest{Space: "proposal", Axes: sel, Benches: benchNames(w.benches), Shards: workers()})
	if err != nil {
		return "", jt, err
	}
	id := tr.begin("serve.submit", root)
	var st serve.JobStatus
	err = w.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st)
	tr.end(id)
	if err != nil {
		return "", jt, err
	}
	jt.submit = time.Since(t0)

	id = tr.begin("serve.wait", root)
	err = w.follow(st.ID, t0, &jt)
	tr.end(id)
	if err != nil {
		return "", jt, err
	}

	id = tr.begin("serve.fetch", root)
	resp, err := w.client.Get(w.url + "/v1/jobs/" + st.ID + "/result?format=csv")
	if err != nil {
		tr.end(id)
		return "", jt, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return "", jt, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", jt, fmt.Errorf("result: %s: %s", resp.Status, data)
	}
	return string(data), jt, nil
}

// follow reads a job's NDJSON event stream until the server ends it
// after the terminal event, noting when each phase's event arrived.
func (w *serveJobs) follow(job string, t0 time.Time, jt *jobTimes) error {
	resp, err := w.client.Get(w.url + "/v1/jobs/" + job + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	last := ""
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		now := time.Since(t0)
		jt.events++
		switch ev.Type {
		case "lease":
			if jt.leases == 0 {
				jt.firstLease = now
			}
			jt.leases++
		case "shard-done":
			jt.lastShard = now
		case "stitching":
			jt.stitching = now
		case "requeue":
			jt.requeues++
		case "done":
			jt.done = now
		}
		last = ev.Type
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if last != "done" {
		return fmt.Errorf("job %s ended %q", job, last)
	}
	return nil
}

// call sends a JSON request and decodes the reply, which must carry the
// wanted status.
func (w *serveJobs) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, data)
	}
	return json.Unmarshal(data, out)
}

func benchNames(bs []polybench.Bench) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}
