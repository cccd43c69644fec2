package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. Every workload prints every
// declared metric of its mode, so the output shape never depends on the
// workload; a per-layer metric whose layer a workload never enters reads
// 0 (that is the "flat on" prediction of README.md's layer map).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{"wall_s", "s"},
	{"interp.seq_s", "s"},
	{"cpu.interp", "frac"},
	{"compiler.compile_ms", "ms"},
	{"virtual_s", "s"},
	{"cpu.tmk", "frac"},
	{"tmk.barriers", "count"},
	{"tmk.diff_fetches", "count"},
	{"tmk.diff_serves", "count"},
	{"tmk.lock_acquires", "count"},
	{"tmk.lock_fetches", "count"},
	{"tmk.wsync_serves", "count"},
	{"tmk.invalidations", "count"},
	{"tmk.serve_chain_mean", "diffs"},
	{"tmk.dir_redirects", "count"},
	{"tmk.dir_hops", "count"},
	{"tmk.dir_fallbacks", "count"},
	{"tmk.serve_balance", "ratio"},
	{"vt.barrier_wait_s", "s"},
	{"vt.fault_service_s", "s"},
	{"vt.lock_wait_s", "s"},
	{"cpu.vm", "frac"},
	{"vm.faults", "count"},
	{"vm.twins", "count"},
	{"vm.diffs", "count"},
	{"vm.prot_ops", "count"},
	{"cpu.adapt", "frac"},
	{"adapt.promotions", "count"},
	{"adapt.decays", "count"},
	{"cpu.sim", "frac"},
	{"sim.dispatches", "count"},
	{"cpu.wire", "frac"},
	{"cpu.host", "frac"},
	{"wire.us_per_frame", "us"},
	{"net.msgs", "count"},
	{"net.mbytes", "MB"},
	{"net.frames", "count"},
	{"net.frames_per_flush", "ratio"},
	{"host.net_setup_ms", "ms"},
	{"cpu.gc", "frac"},
	{"cpu.other", "frac"},
	{"go.allocs_per_run", "count"},
	{"go.alloc_mb_per_run", "MB"},
	{"svc.submit_ms_p50", "ms"},
	{"svc.run_ms_p50", "ms"},
	{"svc.wait_ms_p50", "ms"},
	{"svc.wait_ms_p95", "ms"},
	{"svc.slot_busy_frac", "frac"},
	{"svc.retries", "count"},
	{"svc.warm_vs_fresh", "ratio"},
	{"trace.overhead_frac", "frac"},
}

// metricJSON is one entry of the result line's "metrics" object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect renders the measured values of one mode's declared metrics.
// An end-to-end metric must have been measured; a per-layer one the
// workload does not exercise reads 0.
func collect(defs []metricDef, vals map[string]float64, required bool) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return out, nil
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// the convention the steadiness record uses.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	var out [3]float64
	switch len(s) {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
