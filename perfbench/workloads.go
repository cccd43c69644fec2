package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/interp"
	"sdsm/internal/svc"
	"sdsm/internal/tmk"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// workload is one set of inputs the benchmark runs. README.md records
// why each exists and which layers it stresses.
type workload struct {
	name string
	// runs is the run list of one pass. On the sim and net workloads a
	// pass calls harness.Run on each entry, in an order the seed draws.
	// On service it is the job mix mapped through svc.JobConfig: the
	// traced and warm-vs-fresh passes run it directly.
	runs []harness.Config
	// mix is the service's job mix (nil elsewhere). A service pass is a
	// batch of batchShare jobs of each entry, submitted by closed-loop
	// clients in an order the seed draws.
	mix []wire.JobSpec
}

// The service workload's shape: Table D's mix on a 4-slot warm pool,
// driven by two closed-loop clients (a service client waits for its
// result before it submits again). The 4-rank spmv job needs every slot,
// so it blocks both 2-rank clients and slot wait shapes the tail.
const (
	serviceSlots   = 4
	serviceClients = 2
	batchShare     = 4
)

// tableDMix is Table D's job mix (cmd/sdsm-experiments -serve).
var tableDMix = []wire.JobSpec{
	{App: "jacobi", Set: "small", Procs: 2, Verify: true},
	{App: "spmv", Set: "small", Procs: 4, Verify: true, Scale: true},
	{App: "tsp", Set: "small", Procs: 2, Verify: true},
	{App: "jacobi", Set: "bound", Procs: 2, Verify: true, Adapt: true},
}

var workloadNames = []string{"paper-sim", "scale-sim", "net-dsm", "service"}

// newWorkload builds a workload by name.
func newWorkload(name string) (*workload, error) {
	w := &workload{name: name}
	dsm := func(app string, set apps.DataSet, sys harness.SystemKind, procs int, be harness.Backend, adapt, scale bool) {
		a, err := apps.ByName(app)
		if err != nil {
			panic(err) // the names below are the repo's own apps
		}
		w.runs = append(w.runs, harness.Config{
			App: a, Set: set, System: sys, Procs: procs, Backend: be,
			Verify: true, Adapt: adapt, Scale: scale,
		})
	}
	switch name {
	case "paper-sim":
		// The paper's own configuration: every paper app on its large
		// set as base and compiler-optimized TreadMarks, plus the two
		// irregular apps under the adaptive protocol, at 8 sim nodes.
		for _, a := range []string{"jacobi", "fft", "is", "shallow", "gauss", "mgs"} {
			dsm(a, apps.Large, harness.Base, 8, harness.BackendSim, false, false)
			dsm(a, apps.Large, harness.Opt, 8, harness.BackendSim, false, false)
		}
		dsm("spmv", apps.Large, harness.Base, 8, harness.BackendSim, true, false)
		dsm("tsp", apps.Large, harness.Base, 8, harness.BackendSim, true, false)
	case "scale-sim":
		// Table C's largest points: the ownership directory and the sim
		// dispatcher at 64 and 128 nodes.
		for _, procs := range []int{64, 128} {
			dsm("tsps", apps.Small, harness.Base, procs, harness.BackendSim, true, true)
			dsm("jacobi", apps.Small, harness.Base, procs, harness.BackendSim, true, true)
		}
	case "net-dsm":
		// The wire backend: barrier-scope producer/consumer diffs
		// (jacobi, fft, mgs) next to lock-scope migratory data with
		// grant piggybacks (is, tsp), 4 ranks in one process.
		for _, a := range []string{"jacobi", "fft", "mgs", "is"} {
			dsm(a, apps.Large, harness.Base, 4, harness.BackendNet, false, false)
		}
		dsm("tsp", apps.Large, harness.Base, 4, harness.BackendNet, true, false)
		dsm("spmv", apps.Large, harness.Base, 4, harness.BackendNet, true, false)
	case "service":
		w.mix = tableDMix
		for _, spec := range w.mix {
			cfg, err := svc.JobConfig(spec)
			if err != nil {
				return nil, err
			}
			w.runs = append(w.runs, cfg)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// runName labels a configuration in diagnostics.
func runName(cfg harness.Config) string {
	s := fmt.Sprintf("%s/%s/%s/%d", cfg.App.Name, cfg.Set, cfg.System, cfg.Procs)
	if cfg.Backend != "" && cfg.Backend != harness.BackendSim {
		s += "/" + string(cfg.Backend)
	}
	if cfg.Adapt {
		s += "/adapt"
	}
	if cfg.Scale {
		s += "/scale"
	}
	return s
}

// deterministic reports whether a configuration's virtual time and
// protocol counts are a pure function of its inputs (the sim backend).
func deterministic(cfg harness.Config) bool {
	return cfg.Backend == "" || cfg.Backend == harness.BackendSim
}

// appSet keys the sequential reference checksums.
type appSet struct {
	app string
	set apps.DataSet
}

// seqRefs computes the sequential reference checksum of every app and
// data set the run list uses (interp.RunSeq, the uniprocessor program).
func seqRefs(runs []harness.Config) map[appSet]float64 {
	refs := map[appSet]float64{}
	for _, cfg := range runs {
		k := appSet{cfg.App.Name, cfg.Set}
		if _, ok := refs[k]; ok {
			continue
		}
		prog := cfg.App.Build(1)
		params := prog.Prepare(cfg.App.Sets[cfg.Set], 1)
		layout, mem := interp.RunSeq(prog, params)
		refs[k] = apps.Checksum(layout, mem, cfg.App.CheckArray)
	}
	return refs
}

// runSig is everything a sim run must reproduce exactly, pass after pass.
type runSig struct {
	time        time.Duration
	msgs, bytes int64
	protocol    tmk.ProtocolStats
	vm          vm.Counters
}

func sigOf(r *harness.Result) runSig {
	return runSig{r.Time, r.Msgs, r.Bytes, r.Protocol, r.VM}
}

// jobSig is the part of a run a service job reports back; a warm pool
// job must match a fresh solo run of the same configuration exactly.
type jobSig struct {
	virtualNS, msgs, bytes, segv, diffFetches, barriers, lockAcquires int64
}

func jobSigOf(r wire.JobResult) jobSig {
	return jobSig{r.VirtualNS, r.Msgs, r.Bytes, r.Segv, r.DiffFetches, r.Barriers, r.LockAcquires}
}

func soloSigOf(r *harness.Result) jobSig {
	return jobSig{int64(r.Time), r.Msgs, r.Bytes, r.Segv, r.Protocol.DiffFetches, r.Protocol.Barriers, r.Protocol.LockAcquires}
}

// checker validates every run and job: its checksum against the
// sequential reference (apps.Close), and on the sim backend its virtual
// time and protocol and vm counts against the first run of the same
// configuration in this process (or, for a service job, against a fresh
// solo run). Every check counts as one attempt.
type checker struct {
	runs  []harness.Config
	seq   map[appSet]float64
	first map[int]runSig
	solo  map[int]jobSig

	attempted, failed int
	errs              []string
}

func newChecker(runs []harness.Config, seq map[appSet]float64) *checker {
	return &checker{runs: runs, seq: seq, first: map[int]runSig{}, solo: map[int]jobSig{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// run checks one harness.Run outcome of run-list entry i. traced runs
// must reproduce the untraced counts too: tracing only observes.
func (c *checker) run(i int, res *harness.Result, err error) {
	c.attempted++
	cfg := c.runs[i]
	if err != nil {
		c.fail("%s: %v", runName(cfg), err)
		return
	}
	if want := c.seq[appSet{cfg.App.Name, cfg.Set}]; !apps.Close(res.Checksum, want) {
		c.fail("%s: checksum %v, sequential reference %v", runName(cfg), res.Checksum, want)
		return
	}
	if !deterministic(cfg) {
		return
	}
	sig := sigOf(res)
	if prev, ok := c.first[i]; !ok {
		c.first[i] = sig
	} else if sig != prev {
		c.fail("%s: virtual time or protocol counts differ from the first pass (%v vs %v)", runName(cfg), sig.time, prev.time)
	}
}

// sameLayers checks a later traced sim pass's per-layer values against
// the first traced pass's: on the sim backend they are a pure function of
// the inputs.
func (c *checker) sameLayers(pass int, first, vals map[string]float64) {
	c.attempted++
	for k, v := range vals {
		if first[k] != v {
			c.fail("traced pass %d: %s = %v, first traced pass %v", pass, k, v, first[k])
			return
		}
	}
}

// job checks one service job of mix entry i.
func (c *checker) job(i int, res wire.JobResult, err error) {
	c.attempted++
	cfg := c.runs[i]
	if err == nil && res.Err != "" {
		err = errors.New(res.Err)
	}
	if err != nil {
		c.fail("job %s: %v", runName(cfg), err)
		return
	}
	if want := c.seq[appSet{cfg.App.Name, cfg.Set}]; !apps.Close(res.Checksum, want) {
		c.fail("job %s: checksum %v, sequential reference %v", runName(cfg), res.Checksum, want)
		return
	}
	if want, ok := c.solo[i]; ok && deterministic(cfg) && jobSigOf(res) != want {
		c.fail("job %s: result %+v differs from the solo run %+v", runName(cfg), jobSigOf(res), want)
	}
}

// batchOrder returns one service pass: share jobs of each of n mix
// entries, in a seed-drawn order.
func batchOrder(rng *rand.Rand, n, share int) []int {
	b := make([]int, 0, n*share)
	for i := 0; i < n; i++ {
		for k := 0; k < share; k++ {
			b = append(b, i)
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// newRNG derives the benchmark's random stream from its seed.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5eed))
}
