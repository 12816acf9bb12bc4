package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricName is a reported metric and its unit.
type metricName struct{ name, unit string }

// endToEndNames are the metrics an untraced run reports.
func endToEndNames() []metricName {
	return []metricName{
		{"wall_s", "s"}, {"sims_per_s", "1/s"}, {"job_p50_s", "s"}, {"job_p90_s", "s"},
		{"setup_s", "s"}, {"alloc_mb", "MiB"}, {"peak_rss_mb", "MiB"},
	}
}

// perLayerNames are the metrics a traced run reports, on every
// workload; a layer the workload does not reach from the benchmark
// reads 0.
func perLayerNames() []metricName {
	return []metricName{
		{"sim.replays", "count"}, {"sim.replay_records", "count"}, {"sim.replay_s", "s"}, {"sim.records_per_s", "1/s"},
		{"compile.calls", "count"}, {"compile.s", "s"},
		{"cpu.captures", "count"}, {"cpu.capture_records", "count"}, {"cpu.capture_s", "s"},
		{"replay.digest_s", "s"}, {"replay.encoded_mb", "MiB"},
		{"store.gets", "count"}, {"store.hits", "count"}, {"store.get_s", "s"}, {"store.read_mb", "MiB"},
		{"store.puts", "count"}, {"store.put_s", "s"}, {"store.written_mb", "MiB"},
		{"energy.calls", "count"}, {"energy.s", "s"},
		{"experiments.s", "s"},
		{"runner.sims", "count"}, {"runner.cached", "count"}, {"runner.busy_s", "s"},
		{"runner.utilization", "ratio"}, {"runner.max_queued", "count"},
		{"dse.points", "count"}, {"dse.frontier", "count"}, {"dse.pareto_s", "s"}, {"dse.report_s", "s"},
		{"stats.render_s", "s"},
		{"serve.submit_s", "s"}, {"serve.queue_wait_s", "s"}, {"serve.shard_s", "s"}, {"serve.stitch_s", "s"},
		{"serve.fetch_s", "s"}, {"serve.leases", "count"}, {"serve.events", "count"}, {"serve.requeues", "count"},
		{"bench.self_s", "s"}, {"experiments.self_s", "s"}, {"runner.self_s", "s"}, {"dse.self_s", "s"},
		{"compile.self_s", "s"}, {"cpu.self_s", "s"}, {"replay.self_s", "s"}, {"sim.self_s", "s"},
		{"energy.self_s", "s"}, {"store.self_s", "s"}, {"stats.self_s", "s"}, {"serve.self_s", "s"},
		{"sim.cycles", "count"}, {"sim.insts", "count"}, {"cache.dl1_accesses", "count"}, {"cache.dl1_misses", "count"},
		{"cache.dl1_bank_conflict_cycles", "count"}, {"core.fe_hits", "count"}, {"cache.l2_misses", "count"},
		{"trace.overhead_s", "s"},
	}
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of sorted xs at q, interpolating linearly between the two
// nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// printShares prints the traced sample's self time per layer.
func printShares(w io.Writer, workload string, shares []layerShare) {
	fmt.Fprintf(w, "self time by layer, %s (traced sample):\n", workload)
	for _, s := range shares {
		fmt.Fprintf(w, "  %-12s %9.3f s %6.1f%%\n", s.Layer, s.SelfS, 100*s.Share)
	}
}
