package svc

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sdsm/internal/wire"
)

// TestMalformedSubmitRejected pins the admission contract: a
// well-formed frame carrying a nonsense job is rejected per-job — the
// connection stays usable and the pool keeps serving — and raw garbage
// that does not decode as a frame costs only that connection.
func TestMalformedSubmitRejected(t *testing.T) {
	co, cl := startService(t, Config{Slots: 2})

	bad := []struct {
		spec   wire.JobSpec
		reason string
	}{
		{wire.JobSpec{App: "nope", Set: "small", Procs: 2}, "unknown application"},
		{wire.JobSpec{App: "jacobi", Set: "galactic", Procs: 2}, "no data set"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 0}, "out of range"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, System: "pvme"}, "not a DSM system"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, Backend: "carrier-pigeon"}, "unknown backend"},
		{wire.JobSpec{App: "jacobi", Set: "small", Procs: 64}, "no executor"},
	}
	for _, c := range bad {
		_, err := cl.Submit(c.spec)
		if err == nil {
			t.Fatalf("spec %+v: accepted, want rejection", c.spec)
		}
		if !strings.Contains(err.Error(), c.reason) {
			t.Errorf("spec %+v: rejection %q does not mention %q", c.spec, err, c.reason)
		}
	}
	// The same connection must still run real work after every rejection.
	mustDo(t, cl, wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, Verify: true})

	// Raw garbage: not a frame at all. The coordinator closes the
	// connection and nothing else.
	network, addr := co.Addr()
	raw, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Error("garbage connection still open, want close")
	}
	raw.Close()

	// And the pool survived: a fresh client still gets service.
	cl2, err := Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	mustDo(t, cl2, wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, Verify: true})

	if rej := co.Stats.Rejected.Load(); rej != int64(len(bad)) {
		t.Errorf("rejected counter %d, want %d", rej, len(bad))
	}
}

// TestQueueFullRejected pins the bounded queue: with the only executor
// wedged mid-job and the one queue slot filled, the next submit is
// rejected immediately with "queue full" — admission control, not
// unbounded buffering. A fake daemon plays the wedged executor so the
// sequencing is deterministic.
func TestQueueFullRejected(t *testing.T) {
	co, err := Start(Config{Slots: 0, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	network, addr := co.Addr()

	// Attach a 1-slot daemon that accepts a dispatch and sits on it.
	dc, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if err := wire.WriteFrame(dc, &wire.Frame{Kind: wire.FPoolHello, Tag: 1}); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := wire.JobSpec{App: "jacobi", Set: "small", Procs: 1}

	// Job 1: accepted and dispatched to the wedged daemon. The hello is
	// in flight when we first submit, so capacity rejections retry until
	// the attach lands. Reading the dispatch frame synchronizes: after
	// it, the queue is empty and the daemon's only slot is busy.
	var j1 *Job
	for i := 0; ; i++ {
		j1, err = cl.Submit(spec)
		if err == nil {
			break
		}
		if i > 500 || !strings.Contains(err.Error(), "no executor") {
			t.Fatalf("job 1: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	df, err := wire.ReadFrame(dc)
	if err != nil || df.Kind != wire.FJob {
		t.Fatalf("daemon dispatch: frame %v err %v", df, err)
	}
	// Job 2: accepted into the single queue slot.
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("job 2: %v", err)
	}
	// Job 3: queue full, rejected.
	if _, err := cl.Submit(spec); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("job 3: err %v, want queue-full rejection", err)
	}
	// Unwedge: answer job 1 so shutdown is clean.
	ds := df.Payload.(wire.JobSpec)
	if err := wire.WriteFrame(dc, &wire.Frame{Kind: wire.FJobResult, Payload: wire.JobResult{ID: ds.ID}}); err != nil {
		t.Fatal(err)
	}
	j1.Wait()
}

// TestDaemonGarbageFailsJob pins daemon-death reporting: a daemon that
// takes a job and then sends bytes that do not decode as a frame fails
// that job with the decode error as its reason — the client learns why,
// not just that — and the coordinator's local pool keeps serving.
func TestDaemonGarbageFailsJob(t *testing.T) {
	co, cl := startService(t, Config{Slots: 1})
	network, addr := co.Addr()
	dc, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if err := wire.WriteFrame(dc, &wire.Frame{Kind: wire.FPoolHello, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	// The fake daemon: take one dispatch, answer with a length-prefixed
	// body whose version byte is wrong.
	garbage := []byte{30, 0, 0, 0}
	for i := 0; i < 30; i++ {
		garbage = append(garbage, 0xEE)
	}
	daemonErr := make(chan error, 1)
	go func() {
		f, err := wire.ReadFrame(dc)
		if err == nil && f.Kind != wire.FJob {
			err = fmt.Errorf("fake daemon got frame kind %d, want FJob", f.Kind)
		}
		if err == nil {
			_, err = dc.Write(garbage)
		}
		daemonErr <- err
	}()

	// The local worker and the daemon's forwarder both pull from the
	// queue; submit until a job lands on the daemon and fails.
	spec := wire.JobSpec{App: "jacobi", Set: "small", Procs: 1, Verify: true}
	deadline := time.Now().Add(30 * time.Second)
	var res wire.JobResult
	for {
		res, err = cl.Do(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if res.Err != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job reached the fake daemon")
		}
	}
	if err := <-daemonErr; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Err, "pool daemon died") || !strings.Contains(res.Err, "wire: version 238") {
		t.Errorf("job error %q does not name the daemon's death and its cause", res.Err)
	}
	mustDo(t, cl, spec)
}

// TestPoolDaemonE2E runs jobs through a real daemon: coordinator with
// no local pool, RunPoolDaemon attached over the wire, results
// bit-identical to local-pool runs of the same specs.
func TestPoolDaemonE2E(t *testing.T) {
	co, err := Start(Config{Slots: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	network, addr := co.Addr()
	stop := make(chan struct{})
	derr := make(chan error, 1)
	go func() { derr <- RunPoolDaemon(network, addr, 4, stop) }()

	cl, err := Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Daemon attach races the first submit; capacity-based rejection
	// retries briefly until the hello lands.
	spec := wire.JobSpec{App: "jacobi", Set: "small", Procs: 4, Verify: true}
	var res wire.JobResult
	for i := 0; ; i++ {
		res, err = cl.Do(spec)
		if err == nil {
			break
		}
		if i > 100 || !strings.Contains(err.Error(), "no executor") {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res.Err != "" {
		t.Fatalf("daemon job failed: %s", res.Err)
	}

	// Same spec through a local pool for the reference.
	co2, cl2 := startService(t, Config{Slots: 4})
	_ = co2
	ref := mustDo(t, cl2, spec)
	if res.Checksum != ref.Checksum || res.VirtualNS != ref.VirtualNS {
		t.Errorf("daemon result (%v, %d) != local pool result (%v, %d)",
			res.Checksum, res.VirtualNS, ref.Checksum, ref.VirtualNS)
	}

	// Back-to-back on the daemon's pool: still bit-identical.
	res2, err := cl.Do(spec)
	if err != nil || res2.Err != "" {
		t.Fatalf("daemon reuse job: %v %s", err, res2.Err)
	}
	if res2.Checksum != ref.Checksum || res2.VirtualNS != ref.VirtualNS {
		t.Errorf("daemon rerun (%v, %d) != reference (%v, %d)",
			res2.Checksum, res2.VirtualNS, ref.Checksum, ref.VirtualNS)
	}

	close(stop)
	if err := <-derr; err != nil {
		t.Errorf("daemon exit: %v", err)
	}
}
