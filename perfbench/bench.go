package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sdsm/internal/compiler"
	"sdsm/internal/harness"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/obs"
	"sdsm/internal/svc"
	"sdsm/internal/wire"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up (a cold heap, a busy neighbour) does not
// move it.
const setupRepeats = 5

// minPasses is the fewest timed passes a run makes, however long they
// take, so that each run's median discards one slow pass.
const minPasses = 3

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is one invocation's result: the measured metrics, the checker
// that counted attempts and failures, and human-readable notes.
type outcome struct {
	vals  map[string]float64
	chk   *checker
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setup is what a workload holds before its first timed operation.
type setup struct {
	seq    map[appSet]float64
	seqDur time.Duration
	svc    *service // service workload only
}

// doSetup computes the sequential reference checksums and, for the
// service, the fresh solo references, then starts the coordinator, dials
// the clients and runs one warm-up job of every mix entry per client.
func doSetup(w *workload, chk *checker) (*setup, error) {
	t := time.Now()
	st := &setup{seq: seqRefs(w.runs)}
	st.seqDur = time.Since(t)
	chk.seq = st.seq
	if w.mix == nil {
		return st, nil
	}
	for i, cfg := range w.runs {
		res, err := harness.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("solo reference %s: %w", runName(cfg), err)
		}
		chk.solo[i] = soloSigOf(res)
	}
	s, err := startService()
	if err != nil {
		return nil, err
	}
	st.svc = s
	for _, cl := range s.clients {
		for i, spec := range w.mix {
			r := submitWait(cl, spec)
			chk.job(i, r.res, r.err)
		}
	}
	return st, nil
}

func (st *setup) close() {
	if st.svc != nil {
		st.svc.close()
	}
}

// service is a coordinator with a warm local pool and its clients.
type service struct {
	co      *svc.Coordinator
	clients []*svc.Client
}

func startService() (*service, error) {
	co, err := svc.Start(svc.Config{Slots: serviceSlots})
	if err != nil {
		return nil, err
	}
	s := &service{co: co}
	for k := 0; k < serviceClients; k++ {
		cl, err := svc.Dial(co.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

func (s *service) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.co.Close()
}

// jobRec is one service job as its client saw it.
type jobRec struct {
	mix     int
	submit  time.Duration // Submit call: admission round trip
	latency time.Duration // Submit to Wait return
	retries int
	res     wire.JobResult
	err     error
}

// submitWait submits one job and waits for its result, backing off and
// resubmitting on a queue-full rejection as a patient client does.
func submitWait(cl *svc.Client, spec wire.JobSpec) jobRec {
	var r jobRec
	t0 := time.Now()
	for {
		j, err := cl.Submit(spec)
		if err != nil && strings.Contains(err.Error(), "queue full") {
			r.retries++
			time.Sleep(time.Duration(r.retries) * time.Millisecond)
			continue
		}
		r.submit = time.Since(t0)
		if err != nil {
			r.err = err
			return r
		}
		r.res = j.Wait()
		r.latency = time.Since(t0)
		return r
	}
}

// pass runs one batch through the closed-loop clients: each client takes
// the next job of the batch, submits it, waits for its result, and only
// then takes another.
func (s *service) pass(mix []wire.JobSpec, order []int) []jobRec {
	recs := make([]jobRec, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				recs[i] = submitWait(cl, mix[order[i]])
				recs[i].mix = order[i]
			}
		}()
	}
	wg.Wait()
	return recs
}

// cost is what an operation took: wall time, and the CPU time of the
// whole process (user plus system, every thread) while it ran.
type cost struct {
	wall time.Duration
	cpu  float64 // seconds
}

func (c *cost) add(d cost) {
	c.wall += d.wall
	c.cpu += d.cpu
}

// measureCost runs f and reports its cost.
func measureCost(f func()) cost {
	c0, t := cpuSeconds(), time.Now()
	f()
	return cost{wall: time.Since(t), cpu: cpuSeconds() - c0}
}

// cpuSeconds is the process's CPU time so far. On a VM the kernel leaves
// out the time the host stole from it, which wall time includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runPass calls harness.Run on every entry of runs in the given order,
// measuring each call from outside, and hands each outcome to each. Each
// run starts from a collected heap, as it would in a process of its own,
// so its cost does not depend on the garbage the runs before it left; the
// pass cost is the sum of the run costs.
func runPass(runs []harness.Config, order []int, trace bool, each func(i int, res *harness.Result, err error, c cost)) cost {
	var total cost
	for _, i := range order {
		cfg := runs[i]
		cfg.Trace = trace
		if trace {
			cfg.TraceCap = traceCap(cfg)
		}
		runtime.GC()
		var res *harness.Result
		var err error
		c := measureCost(func() { res, err = harness.Run(cfg) })
		total.add(c)
		each(i, res, err, c)
	}
	return total
}

// traceCap sizes a traced run's per-node event ring. The lock-wait split
// is read from the ring, so it must hold a whole run: the default ring
// does at 8 nodes, and the 64- and 128-node runs take a smaller ring to
// stay within memory (64 bytes an event).
func traceCap(cfg harness.Config) int {
	if cfg.Procs > 16 {
		return 1 << 13
	}
	return 0
}

// opsPass is one pass of the workload's own operations, as a user runs
// them: harness.Run calls in sequence, or a batch through the service.
type opsPass struct {
	cost cost
	ops  int
	runs []cost   // each run-list entry's cost (run-list workloads)
	jobs []jobRec // (service)
}

// runWorkload runs one invocation: set-up, then either the timed passes
// (end-to-end metrics) or the traced run (per-layer metrics).
func runWorkload(w *workload, opt options) (*outcome, error) {
	out := &outcome{vals: map[string]float64{}, chk: newChecker(w.runs, nil)}
	chk := out.chk
	var setupCPU, setupWall, seqDur []float64
	var st *setup
	for k := 0; k < setupRepeats; k++ {
		var s *setup
		var err error
		c := measureCost(func() { s, err = doSetup(w, chk) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, c.cpu)
		setupWall = append(setupWall, c.wall.Seconds())
		seqDur = append(seqDur, s.seqDur.Seconds())
		if k < setupRepeats-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	out.note("set-up, %d times: CPU %s s; wall %s s", setupRepeats, fmtList(setupCPU, "%.3f"), fmtList(setupWall, "%.3f"))

	rng := newRNG(opt.seed)
	onePass := func() opsPass {
		var p opsPass
		if w.mix != nil {
			order := batchOrder(rng, len(w.mix), batchShare)
			var recs []jobRec
			p.cost = measureCost(func() { recs = st.svc.pass(w.mix, order) })
			for _, r := range recs {
				chk.job(r.mix, r.res, r.err)
			}
			p.ops, p.jobs = len(recs), recs
			return p
		}
		p.runs = make([]cost, len(w.runs))
		p.cost = runPass(w.runs, rng.Perm(len(w.runs)), false, func(i int, res *harness.Result, err error, c cost) {
			chk.run(i, res, err)
			p.runs[i] = c
		})
		p.ops = len(w.runs)
		return p
	}

	if !opt.trace {
		out.vals["setup_s"] = median(setupCPU)
		measure(out, opt.seconds, onePass)
		out.vals["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}
	out.vals["interp.seq_s"] = median(seqDur)
	if err := traced(w, opt, out, onePass, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// measure runs timed passes until the time is up (at least minPasses) and
// derives the end-to-end metrics from them.
//
// The pass and run costs are CPU time: on a shared host the wall time of
// the same pass moves with the time other tenants take from the machine,
// and the CPU time does not (README.md, STEADINESS.md). On the run-list
// workloads a run's cost is its median over the passes, cpu_s sums those
// medians, and the percentiles are taken over the run list. On the
// service, cpu_s is the median batch, and throughput and latency are the
// wall-clock ones its clients see. Wall times are noted for people.
func measure(out *outcome, secs float64, onePass func() opsPass) {
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	var cpus, walls, jobLat []float64
	var byRun [][]cost
	var wall time.Duration
	ops := 0
	for len(cpus) < minPasses || time.Now().Before(deadline) {
		p := onePass()
		cpus = append(cpus, p.cost.cpu)
		walls = append(walls, p.cost.wall.Seconds())
		wall += p.cost.wall
		ops += p.ops
		for _, j := range p.jobs {
			jobLat = append(jobLat, ms(j.latency))
		}
		if byRun == nil && p.runs != nil {
			byRun = make([][]cost, len(p.runs))
		}
		for i, c := range p.runs {
			byRun[i] = append(byRun[i], c)
		}
	}
	qc, qw := quartiles(cpus), quartiles(walls)
	out.note("%d passes: CPU q1 %.3f s, median %.3f s, q3 %.3f s; wall q1 %.3f s, median %.3f s, q3 %.3f s",
		len(cpus), qc[0], qc[1], qc[2], qw[0], qw[1], qw[2])
	if byRun == nil {
		out.vals["cpu_s"] = median(cpus)
		out.vals["jobs_per_s"] = float64(ops) / wall.Seconds()
		out.vals["job_p50_ms"] = percentile(jobLat, 0.50)
		out.vals["job_p95_ms"] = percentile(jobLat, 0.95)
		out.note("job_p50_ms, job_p95_ms: Submit to Wait over %d jobs", len(jobLat))
		return
	}
	runCPU := make([]float64, len(byRun))
	runWall := make([]float64, len(byRun))
	var sum float64
	for i, cs := range byRun {
		var c, w []float64
		for _, x := range cs {
			c = append(c, x.cpu*1000)
			w = append(w, ms(x.wall))
		}
		runCPU[i], runWall[i] = median(c), median(w)
		sum += runCPU[i]
	}
	out.vals["cpu_s"] = sum / 1000
	out.vals["jobs_per_s"] = float64(len(runCPU)) / (sum / 1000)
	out.vals["job_p50_ms"] = percentile(runCPU, 0.50)
	out.vals["job_p95_ms"] = percentile(runCPU, 0.95)
	out.note("job_p50_ms, job_p95_ms: CPU time over the medians of %d runs; wall p50 %.1f ms, p95 %.1f ms",
		len(runCPU), percentile(runWall, 0.50), percentile(runWall, 0.95))
}

// traced is the per-layer run. Phase A repeats the workload's own passes
// under the CPU profiler for half the time: layer CPU shares,
// allocations and the service's stage times come from it. Phase B runs
// the run list for the rest, each entry untraced and traced back to
// back: counts, the virtual-time split and the trace overhead come from
// it. The service run then times warm pool jobs against fresh runs.
func traced(w *workload, opt options, out *outcome, onePass func() opsPass, rng *rand.Rand) error {
	half := time.Duration(opt.seconds / 2 * float64(time.Second))
	chk := out.chk

	var samples layerSamples
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var aPasses, aOps int
	var aWall time.Duration
	var aWalls []float64
	var jobs []jobRec
	deadline := time.Now().Add(half)
	for aPasses == 0 || time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		p := onePass()
		pprof.StopCPUProfile()
		if err := samples.add(buf.Bytes()); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		aPasses++
		aOps += p.ops
		aWall += p.cost.wall
		aWalls = append(aWalls, p.cost.wall.Seconds())
		jobs = append(jobs, p.jobs...)
	}
	runtime.ReadMemStats(&ms1)
	for _, l := range layers {
		out.vals["cpu."+l] = samples.share(l)
	}
	out.vals["go.allocs_per_run"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(aOps)
	out.vals["go.alloc_mb_per_run"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(aOps)
	out.vals["wall_s"] = median(aWalls)
	out.note("cpu.*: %d samples over %d profiled passes", samples.total, aPasses)
	if jobs != nil {
		serviceStages(out, w.mix, jobs, aWall)
	}

	// Phase B: every run of the list twice in a row, untraced and traced,
	// alternating which goes first, so both arms see the same machine.
	// The overhead compares CPU time, for the reason measure gives.
	var plain, tracedCPU []float64
	var first map[string]float64
	deadline = time.Now().Add(half)
	for len(tracedCPU) == 0 || time.Now().Before(deadline) {
		var agg layerAgg
		var dPlain, dTraced cost
		for k, i := range rng.Perm(len(w.runs)) {
			for arm := 0; arm < 2; arm++ {
				if (k+arm)%2 == 0 {
					dPlain.add(runPass(w.runs, []int{i}, false, func(i int, res *harness.Result, err error, _ cost) {
						chk.run(i, res, err)
					}))
					continue
				}
				dTraced.add(runPass(w.runs, []int{i}, true, func(i int, res *harness.Result, err error, _ cost) {
					chk.run(i, res, err)
					if err == nil {
						agg.add(i, w.runs[i], res)
					}
				}))
			}
		}
		plain = append(plain, dPlain.cpu)
		tracedCPU = append(tracedCPU, dTraced.cpu)
		vals := agg.values()
		if first == nil {
			first = vals
			out.note("trace rings: at most %d events a node, %d dropped", agg.maxRing, agg.dropped)
			if agg.dropped > 0 {
				out.note("vt.lock_wait_s is a lower bound: the rings dropped events")
			}
		} else if allDeterministic(w.runs) {
			chk.sameLayers(len(tracedCPU), first, vals)
		}
	}
	for k, v := range first {
		out.vals[k] = v
	}
	out.vals["trace.overhead_frac"] = median(tracedCPU)/median(plain) - 1
	out.note("trace.overhead_frac: CPU time of %d traced and %d untraced passes", len(tracedCPU), len(plain))
	if frames := first["net.frames"]; frames > 0 {
		out.vals["wire.us_per_frame"] = samples.seconds("wire") / float64(aPasses) / frames * 1e6
	}

	out.vals["compiler.compile_ms"] = compileMS(w.runs)
	if procs, ok := netProcs(w.runs); ok {
		d, err := netSetupMS(procs)
		if err != nil {
			return err
		}
		out.vals["host.net_setup_ms"] = d
	}
	if w.mix != nil {
		out.vals["svc.warm_vs_fresh"] = warmVsFresh(w, chk, rng)
	}
	return nil
}

func allDeterministic(runs []harness.Config) bool {
	for _, cfg := range runs {
		if !deterministic(cfg) {
			return false
		}
	}
	return true
}

// serviceStages splits the service's job latency into its stages: the
// admission round trip, the run itself (JobResult.WallNS), and the rest —
// queueing, slot wait and result delivery.
func serviceStages(out *outcome, mix []wire.JobSpec, jobs []jobRec, wall time.Duration) {
	var submit, run, wait []float64
	var busy float64
	retries := 0
	for _, j := range jobs {
		run1 := time.Duration(j.res.WallNS)
		submit = append(submit, ms(j.submit))
		run = append(run, ms(run1))
		wait = append(wait, ms(j.latency-run1))
		busy += float64(j.res.WallNS) * float64(mix[j.mix].Procs)
		retries += j.retries
	}
	out.vals["svc.submit_ms_p50"] = median(submit)
	out.vals["svc.run_ms_p50"] = median(run)
	out.vals["svc.wait_ms_p50"] = median(wait)
	out.vals["svc.wait_ms_p95"] = percentile(wait, 0.95)
	out.vals["svc.slot_busy_frac"] = busy / (float64(serviceSlots) * float64(wall))
	out.vals["svc.retries"] = float64(retries)
	out.note("svc.*: over %d jobs", len(jobs))
}

// compileMS times the compiler's share of one pass: compiler.Compile for
// every opt-tmk run plus compiler.BuildLayout for every run, as
// harness.Run calls them. Median of five repetitions.
func compileMS(runs []harness.Config) float64 {
	var reps []float64
	for k := 0; k < 5; k++ {
		var d time.Duration
		for _, cfg := range runs {
			prog := cfg.App.Build(cfg.Procs)
			params := prog.Prepare(cfg.App.Sets[cfg.Set], cfg.Procs)
			t := time.Now()
			if cfg.System == harness.Opt {
				prog, _ = compiler.Compile(prog, cfg.App.BestOptions(cfg.Procs, params))
			}
			compiler.BuildLayout(prog, params)
			d += time.Since(t)
		}
		reps = append(reps, ms(d))
	}
	return median(reps)
}

// netProcs reports the rank count of the run list's net-backend runs.
func netProcs(runs []harness.Config) (int, bool) {
	for _, cfg := range runs {
		if cfg.Backend == harness.BackendNet {
			return cfg.Procs, true
		}
	}
	return 0, false
}

// netSetupMS times bringing a wire-backend machine up and down
// (host.NewNet then Close): the fixed cost every net run pays.
func netSetupMS(procs int) (float64, error) {
	var reps []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		n, err := host.NewNet(procs, model.SP2())
		if err != nil {
			return 0, fmt.Errorf("host.NewNet: %w", err)
		}
		if err := n.Close(); err != nil {
			return 0, fmt.Errorf("host.Net.Close: %w", err)
		}
		reps = append(reps, ms(time.Since(t)))
	}
	return median(reps), nil
}

// warmVsFresh times svc.Pool.Run against a plain harness.Run of the same
// job, entry by entry, alternating which goes first. The result is the
// sum of per-entry median warm times over the sum of per-entry median
// fresh times: below 1, the warm pool is faster.
func warmVsFresh(w *workload, chk *checker, rng *rand.Rand) float64 {
	const rounds = 5
	pool := svc.NewPool(serviceSlots)
	warm := make([][]float64, len(w.mix))
	fresh := make([][]float64, len(w.mix))
	id := int64(1)
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(w.mix)) {
			for arm := 0; arm < 2; arm++ {
				if (arm+r)%2 == 0 {
					spec := w.mix[i]
					spec.ID = id
					id++
					t := time.Now()
					res := pool.Run(spec)
					warm[i] = append(warm[i], ms(time.Since(t)))
					chk.job(i, res, nil)
				} else {
					t := time.Now()
					res, err := harness.Run(w.runs[i])
					fresh[i] = append(fresh[i], ms(time.Since(t)))
					chk.run(i, res, err)
				}
			}
		}
	}
	var sw, sf float64
	for i := range w.mix {
		sw += median(warm[i])
		sf += median(fresh[i])
	}
	return sw / sf
}

// layerAgg collects one traced pass's per-layer counts run by run. The
// values are summed in run-list order, not pass order, so that a
// deterministic pass gives bit-identical floating-point sums whatever
// order the seed drew.
type layerAgg struct {
	runs    []runLayer // by run-list index
	dropped int64
	maxRing int
}

// runLayer is one traced run's contribution.
type runLayer struct {
	virtual                    time.Duration
	barrierNS, faultNS, lockNS float64 // per-node means
	chainSum, chainN           int64
	balance                    float64 // 0: no serves
	dispatches, frames         int64
	flushes, msgs, bytes       int64
	counts                     []int64 // parallel to countNames
}

// countNames are the protocol and vm counts a traced pass sums.
var countNames = []string{
	"tmk.barriers", "tmk.diff_fetches", "tmk.diff_serves", "tmk.lock_acquires", "tmk.lock_fetches",
	"tmk.wsync_serves", "tmk.invalidations", "tmk.dir_redirects", "tmk.dir_hops", "tmk.dir_fallbacks",
	"vm.faults", "vm.twins", "vm.diffs", "vm.prot_ops",
	"adapt.promotions", "adapt.decays",
}

func (a *layerAgg) add(i int, cfg harness.Config, res *harness.Result) {
	ps, v := res.Protocol, res.VM
	r := runLayer{
		virtual: res.Time, msgs: res.Msgs, bytes: res.Bytes,
		counts: []int64{
			ps.Barriers, ps.DiffFetches, ps.DiffServes, ps.LockAcquires, ps.LockFetches,
			ps.WSyncServes, ps.Invalidations, ps.DirRedirects, ps.DirHops, ps.DirFallbacks,
			v.ReadFaults + v.WriteFaults, v.Twins, v.Diffs, v.ProtOps,
			ps.AdaptPromotions + ps.AdaptLockPromotions, ps.AdaptDecays + ps.AdaptLockDecays,
		},
	}
	if res.ServeMean > 0 {
		r.balance = float64(res.ServeMax) / res.ServeMean
	}
	if m := res.Trace; m != nil {
		n := float64(cfg.Procs)
		snap := m.Reg.Snapshot()
		r.barrierNS = float64(snap.Histograms["barrier.wait.ns"].Sum) / n
		r.faultNS = float64(snap.Histograms["fault.service.ns"].Sum) / n
		ch := snap.Histograms["serve.chain.len"]
		r.chainSum, r.chainN = ch.Sum, ch.N
		r.dispatches = snap.Counters["sim.dispatches"]
		r.frames = snap.Counters["net.frames"]
		r.flushes = snap.Counters["net.flushes"]
		var lock int64
		for _, t := range m.Nodes {
			a.dropped += t.Dropped()
			a.maxRing = max(a.maxRing, t.Len())
			for _, e := range t.Events() {
				if e.Kind == obs.EvLockAcq {
					lock += e.Dur
				}
			}
		}
		r.lockNS = float64(lock) / n
	}
	if i >= len(a.runs) {
		a.runs = append(a.runs, make([]runLayer, i+1-len(a.runs))...)
	}
	a.runs[i] = r
}

func (a *layerAgg) values() map[string]float64 {
	var s runLayer
	s.counts = make([]int64, len(countNames))
	var balance []float64
	for _, r := range a.runs {
		s.virtual += r.virtual
		s.barrierNS += r.barrierNS
		s.faultNS += r.faultNS
		s.lockNS += r.lockNS
		s.chainSum += r.chainSum
		s.chainN += r.chainN
		s.dispatches += r.dispatches
		s.frames += r.frames
		s.flushes += r.flushes
		s.msgs += r.msgs
		s.bytes += r.bytes
		for k, c := range r.counts {
			s.counts[k] += c
		}
		if r.balance > 0 {
			balance = append(balance, r.balance)
		}
	}
	v := map[string]float64{
		"virtual_s":          s.virtual.Seconds(),
		"vt.barrier_wait_s":  s.barrierNS / 1e9,
		"vt.fault_service_s": s.faultNS / 1e9,
		"vt.lock_wait_s":     s.lockNS / 1e9,
		"sim.dispatches":     float64(s.dispatches),
		"net.frames":         float64(s.frames),
		"net.msgs":           float64(s.msgs),
		"net.mbytes":         float64(s.bytes) / 1e6,
	}
	for k, name := range countNames {
		v[name] = float64(s.counts[k])
	}
	if s.chainN > 0 {
		v["tmk.serve_chain_mean"] = float64(s.chainSum) / float64(s.chainN)
	}
	if len(balance) > 0 {
		var sum float64
		for _, b := range balance {
			sum += b
		}
		v["tmk.serve_balance"] = sum / float64(len(balance))
	}
	if s.flushes > 0 {
		v["net.frames_per_flush"] = float64(s.frames) / float64(s.flushes)
	}
	return v
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
