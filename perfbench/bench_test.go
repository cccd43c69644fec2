package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/interp"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10},
	} {
		if got := percentile(xs, c.q); abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 0.95); got != 4 {
		t.Errorf("percentile of one value = %v, want 4", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

// TestQuartiles pins the cut points to Python's
// statistics.quantiles(xs, n=4), which the steadiness record uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

// TestMetricNames checks every declared metric against the result
// line's naming rules and against BENCHMARK.json at the repository root.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, entries []entry) {
		if len(defs) != len(entries) {
			t.Errorf("%s: %d declared, BENCHMARK.json lists %d", what, len(defs), len(entries))
			return
		}
		for i, d := range defs {
			if e := entries[i]; e.Name != d.name || e.Unit != d.unit {
				t.Errorf("%s #%d: declared %s [%s], BENCHMARK.json %s [%s]", what, i, d.name, d.unit, e.Name, e.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
}

// TestServiceSequenceSeeded: the seed alone fixes the service's job
// sequence, and every batch holds equal shares of the mix.
func TestServiceSequenceSeeded(t *testing.T) {
	seq := func(seed uint64) [][]int {
		rng := newRNG(seed)
		var out [][]int
		for k := 0; k < 5; k++ {
			out = append(out, batchOrder(rng, len(tableDMix), batchShare))
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	if !slices.EqualFunc(a, b, slices.Equal) {
		t.Fatalf("seed 7 gave two different sequences: %v, %v", a, b)
	}
	if slices.EqualFunc(a, c, slices.Equal) {
		t.Errorf("seeds 7 and 8 gave the same sequence %v", a)
	}
	for _, batch := range a {
		count := make([]int, len(tableDMix))
		for _, i := range batch {
			count[i]++
		}
		for i, n := range count {
			if n != batchShare {
				t.Errorf("batch %v holds %d jobs of entry %d, want %d", batch, n, i, batchShare)
			}
		}
	}
}

// TestWrongReferenceFails: a run whose checksum misses its reference, or
// whose sim counts differ from an earlier pass, counts as failed.
func TestWrongReferenceFails(t *testing.T) {
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	runs := []harness.Config{{App: a, Set: apps.Small, System: harness.Base, Procs: 2, Verify: true}}
	res, err := harness.Run(runs[0])
	if err != nil {
		t.Fatal(err)
	}

	good := newChecker(runs, seqRefs(runs))
	good.run(0, res, nil)
	if good.failed != 0 {
		t.Fatalf("correct reference: %d failed: %v", good.failed, good.errs)
	}
	moved := *res
	moved.Protocol.DiffFetches++
	good.run(0, &moved, nil)
	if good.failed != 1 {
		t.Errorf("changed sim counts: %d failed, want 1", good.failed)
	}

	bad := newChecker(runs, map[appSet]float64{{"jacobi", apps.Small}: res.Checksum + 1})
	bad.run(0, res, nil)
	if bad.failed != 1 || bad.attempted != 1 {
		t.Errorf("wrong reference: %d of %d failed, want 1 of 1", bad.failed, bad.attempted)
	}
}

// TestTracedCountsRepeat: two traced sim passes give identical per-layer
// counts and virtual-time splits, whatever order the runs go in.
func TestTracedCountsRepeat(t *testing.T) {
	var runs []harness.Config
	for _, name := range []string{"jacobi", "is", "tsp"} {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, harness.Config{App: a, Set: apps.Small, System: harness.Base, Procs: 4, Verify: true, Adapt: name == "tsp"})
	}
	pass := func(order []int) map[string]float64 {
		var agg layerAgg
		runPass(runs, order, true, func(i int, res *harness.Result, err error, _ cost) {
			if err != nil {
				t.Fatal(err)
			}
			agg.add(i, runs[i], res)
		})
		if agg.dropped != 0 {
			t.Errorf("trace rings dropped %d events", agg.dropped)
		}
		return agg.values()
	}
	a, b := pass([]int{0, 1, 2}), pass([]int{2, 0, 1})
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v then %v", k, v, b[k])
		}
	}
	for _, k := range []string{"virtual_s", "tmk.barriers", "tmk.lock_acquires", "vt.barrier_wait_s", "vt.lock_wait_s"} {
		if a[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, a[k])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "sdsm/internal/tmk.(*Node).Barrier", "sdsm/internal/interp.run"}, "tmk"},
		{[]string{"sdsm/internal/apps.Checksum"}, "interp"},
		{[]string{"sdsm/internal/cluster.(*Net).Send"}, "other"},
		{[]string{"runtime.memmove", "main.runPass"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestProfileLayers decodes a real CPU profile of interpreter work.
func TestProfileLayers(t *testing.T) {
	a, err := apps.ByName("gauss")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		prog := a.Build(1)
		interp.RunSeq(prog, prog.Prepare(a.Sets[apps.Small], 1))
	}
	pprof.StopCPUProfile()
	var ls layerSamples
	if err := ls.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ls.total == 0 || ls.period == 0 {
		t.Fatalf("decoded %d samples, period %d", ls.total, ls.period)
	}
	// Under -race much of the time goes to the race runtime, which has
	// no repository frame; the rest is interpreter work.
	if s := ls.share("interp"); s < 0.2 {
		t.Errorf("interp share %.2f of %d samples, want at least 0.2", s, ls.total)
	}
	for _, l := range []string{"tmk", "vm", "wire", "host", "sim"} {
		if ls.by[l] != 0 {
			t.Errorf("%d samples in %s, which sequential interpretation never enters", ls.by[l], l)
		}
	}
}

// TestSmoke runs every workload briefly and checks that it passes its
// own correctness checks and measures every end-to-end metric; the
// fast workloads also make a traced run.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			modes := []bool{false}
			if name == "net-dsm" || name == "service" {
				modes = append(modes, true)
			}
			for _, trace := range modes {
				out, err := runWorkload(w, options{seed: 1, seconds: 0.5, trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				if out.chk.failed != 0 || out.chk.attempted == 0 {
					t.Errorf("trace %v: %d of %d failed: %v", trace, out.chk.failed, out.chk.attempted, out.chk.errs)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				m, err := collect(defs, out.vals, !trace)
				if err != nil {
					t.Fatal(err)
				}
				if !trace {
					for _, d := range defs {
						if m[d.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, m[d.name].Value)
						}
					}
				}
			}
		})
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
