package harness

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/tmk"
)

// Machine-readable benchmark output. From PR 3 on, CI writes one
// BENCH_pr3.json per run and uploads it as an artifact, so the perf
// trajectory of the experiment suite — virtual (deterministic) and
// wall-clock (hardware-dependent) — is tracked across PRs without diffing
// formatted tables.

// BenchEntry is one configuration's measurement. VirtualMS is the
// deterministic simulated execution time (comparable across machines and
// runs); WallMS is the host wall-clock cost of producing it (comparable
// only across runs on similar hardware); Allocs is the machine-wide heap
// allocation count of the run (near-deterministic on the sim backend,
// recorded only when runs are not fanned out — the counter is global, so
// concurrent runs would pollute each other's deltas).
type BenchEntry struct {
	App       string            `json:"app"`
	Set       string            `json:"set"`
	System    string            `json:"system"`
	Procs     int               `json:"procs"`
	Adapt     bool              `json:"adapt,omitempty"`
	VirtualMS float64           `json:"virtual_ms"`
	WallMS    float64           `json:"wall_ms"`
	Allocs    int64             `json:"allocs,omitempty"`
	Msgs      int64             `json:"msgs"`
	Bytes     int64             `json:"bytes"`
	Segv      int64             `json:"segv"`
	Protocol  tmk.ProtocolStats `json:"protocol"`
}

// BenchReport is the artifact schema.
type BenchReport struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Procs      int          `json:"procs"`
	Entries    []BenchEntry `json:"entries"`
}

// benchConfigs is the tracked configuration set: the adaptive-protocol
// grid (baseline / adaptive / compiler) plus every paper application at
// Base and Opt on the small sets — the protocol-stat surface the
// experiment tables are built from.
func benchConfigs(procs int) []Config {
	var cfgs []Config
	for _, c := range adaptGrid() {
		cfgs = append(cfgs,
			Config{App: c.app, Set: c.set, System: Base, Procs: procs},
			Config{App: c.app, Set: c.set, System: Base, Procs: procs, Adapt: true},
		)
		if c.app.XHPF || c.app.WSyncApplicable || c.app.PushApplicable {
			cfgs = append(cfgs, Config{App: c.app, Set: c.set, System: Opt, Procs: procs})
		}
	}
	for _, a := range apps.Registry() {
		cfgs = append(cfgs,
			Config{App: a, Set: Small, System: Base, Procs: procs},
			Config{App: a, Set: Small, System: Opt, Procs: procs},
		)
	}
	// Checkpoint-overhead pin (DESIGN.md §10): jacobi/large with recovery
	// armed and the default full-record cadence. Reported under the
	// "tmk-ckpt" system label so the gate tracks barrier-checkpoint cost —
	// virtual time must stay identical to the plain run (checkpointing is
	// outside the cost model), so the pinned signal is allocations and
	// wall time.
	if a, err := apps.ByName("jacobi"); err == nil {
		cfgs = append(cfgs, Config{App: a, Set: Large, System: Base, Procs: procs, Recover: true})
	}
	// Tracing-overhead pin (DESIGN.md §11): jacobi/large with the protocol
	// event trace armed, under the "tmk-trace" label. Like checkpointing,
	// tracing is outside the cost model — virtual time must stay identical
	// to the plain run — so the gate pins its allocation and wall cost.
	if a, err := apps.ByName("jacobi"); err == nil {
		cfgs = append(cfgs, Config{App: a, Set: Large, System: Base, Procs: procs, Trace: true})
	}
	// Scaling pin (DESIGN.md §12): tsps at 32 nodes with the ownership
	// directory and span-compressed relay on, under the "tmk-scale32"
	// label. Every barrier departure folds the epoch's new intervals into
	// the directory (resetDirectory), so this entry tracks that
	// bookkeeping's allocation and wall cost along with the virtual time
	// of directory-routed fetching at a size the 8-node grid never sees.
	if a, err := apps.ByName("tsps"); err == nil {
		cfgs = append(cfgs, Config{App: a, Set: Small, System: Base, Procs: 32, Adapt: true, Scale: true})
	}
	return cfgs
}

// Bench measures the tracked configurations, fanning independent runs
// across workers (wall times are per-run and unaffected by the fan-out).
// Allocation counts are recorded only at workers == 1: runtime.MemStats
// is process-global, so a delta taken around a run is meaningful only
// when nothing else allocates concurrently.
func Bench(procs, workers int) (*BenchReport, error) {
	cfgs := benchConfigs(procs)
	entries := make([]BenchEntry, len(cfgs))
	err := parallelDo(len(cfgs), workers, func(i int) error {
		cfg := cfgs[i]
		var before runtime.MemStats
		if workers == 1 {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		var allocs int64
		if workers == 1 {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocs = int64(after.Mallocs - before.Mallocs)
		}
		sys := string(cfg.System)
		if cfg.Recover {
			// Distinct label: the gate must compare the recovery-armed run
			// against its own baseline, not the plain one.
			sys += "-ckpt"
		}
		if cfg.Trace {
			sys += "-trace"
		}
		if cfg.Scale {
			sys += "-scale" + strconv.Itoa(cfg.Procs)
		}
		entries[i] = BenchEntry{
			App: cfg.App.Name, Set: string(cfg.Set), System: sys,
			Procs: cfg.Procs, Adapt: cfg.Adapt,
			VirtualMS: float64(res.Time) / 1e6,
			WallMS:    float64(wall) / 1e6,
			Allocs:    allocs,
			Msgs:      res.Msgs, Bytes: res.Bytes, Segv: res.Segv,
			Protocol: res.Protocol,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &BenchReport{
		Schema:     "sdsm-bench/1",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Procs:      procs,
		Entries:    entries,
	}, nil
}

// WriteBenchJSON runs Bench and writes the report to path.
func WriteBenchJSON(path string, procs, workers int) error {
	rep, err := Bench(procs, workers)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
