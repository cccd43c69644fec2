package svc

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"sdsm/internal/host"
	"sdsm/internal/wire"
)

// DefaultQueueCap bounds the coordinator's job queue when Config leaves
// it zero: submits beyond the bound are rejected immediately ("queue
// full"), the admission-control half of the service contract.
const DefaultQueueCap = 64

// Config shapes one coordinator.
type Config struct {
	// Slots is the local pool size; 0 runs a pure control plane
	// that only dispatches to attached daemons.
	Slots int
	// QueueCap bounds the pending-job queue (0 = DefaultQueueCap).
	QueueCap int
}

// ServiceStats counts control-plane outcomes. All fields are atomics;
// Snapshot returns a plain copy.
type ServiceStats struct {
	Accepted  atomic.Int64
	Rejected  atomic.Int64
	Completed atomic.Int64 // results delivered, including jobs whose Err is set
	Failed    atomic.Int64 // of Completed: results carrying Err
}

// StatsSnapshot is a point-in-time copy of ServiceStats.
type StatsSnapshot struct {
	Accepted, Rejected, Completed, Failed int64
}

// job is one accepted submission in flight through the queue.
type job struct {
	spec wire.JobSpec
	tag  int32 // the client's correlation nonce, echoed on every frame about the job
	cl   *clientConn
}

// clientConn serializes all coordinator→client writes on one
// connection. The mutex also sequences admission: accept/reject frames
// are written under the same lock the enqueue decision is made under,
// so a worker's progress or result frames can never overtake the accept
// that announced the job.
type clientConn struct {
	mu sync.Mutex
	c  net.Conn
}

func (cl *clientConn) send(f *wire.Frame) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	// A write error means the client went away; its jobs still run and
	// their results are dropped here. The pool must survive its clients.
	_ = wire.WriteFrame(cl.c, f)
}

// Coordinator is the multi-job control plane: it owns the bounded job
// queue, admits or rejects submissions, and dispatches accepted jobs to
// the local pool and any attached pool daemons.
type Coordinator struct {
	pool   *Pool
	ln     net.Listener
	dir    string // temp dir of the unix socket, "" for tcp
	jobs   chan *job
	nextID atomic.Int64
	maxCap atomic.Int64 // largest executor capacity seen (admission bound)

	Stats ServiceStats

	quit chan struct{} // closed by Close; workers and forwarders watch it

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Start launches a coordinator on a fresh loopback listener (unix
// socket with TCP fallback, like every socket deployment in this repo).
func Start(cfg Config) (*Coordinator, error) {
	ln, dir, err := host.ListenLoopback()
	if err != nil {
		return nil, fmt.Errorf("svc: listen: %w", err)
	}
	qc := cfg.QueueCap
	if qc <= 0 {
		qc = DefaultQueueCap
	}
	co := &Coordinator{
		ln:    ln,
		dir:   dir,
		jobs:  make(chan *job, qc),
		quit:  make(chan struct{}),
		conns: map[net.Conn]bool{},
	}
	if cfg.Slots > 0 {
		co.pool = NewPool(cfg.Slots)
		co.maxCap.Store(int64(cfg.Slots))
		for w := 0; w < cfg.Slots; w++ {
			co.wg.Add(1)
			go co.localWorker()
		}
	}
	co.wg.Add(1)
	go co.acceptLoop()
	return co, nil
}

// Addr returns the network and address clients and daemons dial.
func (co *Coordinator) Addr() (network, addr string) {
	return co.ln.Addr().Network(), co.ln.Addr().String()
}

// Snapshot copies the service counters.
func (co *Coordinator) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Accepted:  co.Stats.Accepted.Load(),
		Rejected:  co.Stats.Rejected.Load(),
		Completed: co.Stats.Completed.Load(),
		Failed:    co.Stats.Failed.Load(),
	}
}

// Close shuts the control plane down: stop accepting, sever every
// connection, and wait for workers to drain. Jobs still queued are
// dropped (their clients are gone with the connections).
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	co.ln.Close()
	for c := range co.conns {
		c.Close()
	}
	co.mu.Unlock()
	// The jobs channel is never closed: a racing submit may still try a
	// non-blocking send. Workers leave via quit instead; queued jobs are
	// dropped with their clients' connections.
	close(co.quit)
	co.wg.Wait()
	if co.dir != "" {
		os.RemoveAll(co.dir)
	}
}

func (co *Coordinator) acceptLoop() {
	defer co.wg.Done()
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return // listener closed
		}
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			c.Close()
			return
		}
		co.conns[c] = true
		co.wg.Add(1)
		co.mu.Unlock()
		go co.serveConn(c)
	}
}

func (co *Coordinator) dropConn(c net.Conn) {
	co.mu.Lock()
	delete(co.conns, c)
	co.mu.Unlock()
	c.Close()
}

// serveConn handles one inbound connection. The first frame declares
// the peer: FPoolHello attaches a daemon (Tag carries its slot count),
// FJob begins a client session. Anything else — including bytes that do
// not decode as a frame at all — closes the connection; the pool and
// every other session are untouched.
func (co *Coordinator) serveConn(c net.Conn) {
	defer co.wg.Done()
	defer co.dropConn(c)
	f, err := wire.ReadFrame(c)
	if err != nil {
		return
	}
	switch f.Kind {
	case wire.FPoolHello:
		co.serveDaemon(c, int(f.Tag))
	case wire.FJob:
		cl := &clientConn{c: c}
		co.submit(cl, f)
		for {
			f, err := wire.ReadFrame(c)
			if err != nil {
				return
			}
			if f.Kind != wire.FJob {
				return
			}
			co.submit(cl, f)
		}
	}
}

// submit admits or rejects one job submission. The enqueue decision and
// its announcement happen under the client's write lock, so accept and
// reject frames are ordered before any worker traffic for the job.
func (co *Coordinator) submit(cl *clientConn, f *wire.Frame) {
	spec, ok := f.Payload.(wire.JobSpec)
	reject := func(reason string) {
		co.Stats.Rejected.Add(1)
		cl.mu.Lock()
		defer cl.mu.Unlock()
		_ = wire.WriteFrame(cl.c, &wire.Frame{
			Kind: wire.FJobReject, Tag: f.Tag,
			Payload: wire.JobDecision{Reason: reason},
		})
	}
	if !ok {
		reject("svc: job frame carries no spec")
		return
	}
	if _, err := JobConfig(spec); err != nil {
		reject(err.Error())
		return
	}
	if c := co.maxCap.Load(); int64(spec.Procs) > c {
		reject(fmt.Sprintf("svc: no executor with %d ranks (max capacity %d)", spec.Procs, c))
		return
	}
	spec.ID = co.nextID.Add(1)
	j := &job{spec: spec, tag: f.Tag, cl: cl}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	select {
	case co.jobs <- j:
		co.Stats.Accepted.Add(1)
		_ = wire.WriteFrame(cl.c, &wire.Frame{
			Kind: wire.FJobAccept, Tag: f.Tag,
			Payload: wire.JobDecision{ID: spec.ID},
		})
		_ = wire.WriteFrame(cl.c, &wire.Frame{
			Kind: wire.FJobState, Tag: f.Tag,
			Payload: wire.JobProgress{ID: spec.ID, State: wire.JobQueued},
		})
	default:
		co.Stats.Rejected.Add(1)
		_ = wire.WriteFrame(cl.c, &wire.Frame{
			Kind: wire.FJobReject, Tag: f.Tag,
			Payload: wire.JobDecision{Reason: "svc: queue full"},
		})
	}
}

// finish delivers a job's result to its client and counts it.
func (co *Coordinator) finish(j *job, res wire.JobResult) {
	co.Stats.Completed.Add(1)
	if res.Err != "" {
		co.Stats.Failed.Add(1)
	}
	j.cl.send(&wire.Frame{Kind: wire.FJobResult, Tag: j.tag, Payload: res})
}

// localWorker drains the queue onto the local pool. One worker per
// slot: at most Slots jobs run concurrently, and slot acquisition
// inside Pool.Run enforces the per-rank exclusivity below that.
func (co *Coordinator) localWorker() {
	defer co.wg.Done()
	for {
		select {
		case <-co.quit:
			return
		case j := <-co.jobs:
			j.cl.send(&wire.Frame{Kind: wire.FJobState, Tag: j.tag,
				Payload: wire.JobProgress{ID: j.spec.ID, State: wire.JobRunning}})
			co.finish(j, co.pool.Run(j.spec))
		}
	}
}

// serveDaemon runs the coordinator side of an attached pool daemon:
// slots forwarder goroutines pull jobs and ship them over the
// connection; one reader routes results back to the waiting forwarder,
// which relays to the job's client. In-flight jobs are bounded by the
// daemon's declared slot count.
func (co *Coordinator) serveDaemon(c net.Conn, slots int) {
	if slots < 1 {
		return
	}
	if prev := co.maxCap.Load(); int64(slots) > prev {
		co.maxCap.Store(int64(slots))
	}
	var wmu sync.Mutex
	var pmu sync.Mutex
	pending := map[int64]chan wire.JobResult{}
	readerGone := make(chan struct{})
	var readErr error // why the reader stopped; written before readerGone closes

	var fwg sync.WaitGroup
	for i := 0; i < slots; i++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			for {
				var j *job
				select {
				case <-co.quit:
					return
				case <-readerGone:
					return
				case j = <-co.jobs:
				}
				done := make(chan wire.JobResult, 1)
				pmu.Lock()
				pending[j.spec.ID] = done
				pmu.Unlock()
				wmu.Lock()
				err := wire.WriteFrame(c, &wire.Frame{Kind: wire.FJob, Payload: j.spec})
				wmu.Unlock()
				if err != nil {
					co.finish(j, wire.JobResult{ID: j.spec.ID, Err: fmt.Sprintf("svc: pool daemon unreachable: %v", err)})
					return
				}
				j.cl.send(&wire.Frame{Kind: wire.FJobState, Tag: j.tag,
					Payload: wire.JobProgress{ID: j.spec.ID, State: wire.JobRunning}})
				select {
				case res := <-done:
					co.finish(j, res)
				case <-readerGone:
					co.finish(j, wire.JobResult{ID: j.spec.ID, Err: fmt.Sprintf("svc: pool daemon died: %v", readErr)})
					return
				}
				pmu.Lock()
				delete(pending, j.spec.ID)
				pmu.Unlock()
			}
		}()
	}
	for {
		f, err := wire.ReadFrame(c)
		if err != nil {
			// Daemon death: forwarders holding jobs fail them with this
			// cause via readerGone; queued jobs stay queued for other
			// executors. The pool survives its daemons.
			readErr = err
			close(readerGone)
			fwg.Wait()
			return
		}
		res, ok := f.Payload.(wire.JobResult)
		if f.Kind != wire.FJobResult || !ok {
			continue
		}
		pmu.Lock()
		done := pending[res.ID]
		pmu.Unlock()
		if done != nil {
			done <- res
		}
	}
}
