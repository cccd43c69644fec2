package svc

import (
	"fmt"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/wire"
)

// startService spins up a coordinator with a local pool and a
// client connected to it, torn down with the test.
func startService(t *testing.T, cfg Config) (*Coordinator, *Client) {
	t.Helper()
	co, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	cl, err := Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return co, cl
}

// mustDo submits one job and fails the test on rejection or job error.
func mustDo(t *testing.T, cl *Client, spec wire.JobSpec) wire.JobResult {
	t.Helper()
	res, err := cl.Do(spec)
	if err != nil {
		t.Fatalf("submit %s/%s: %v", spec.App, spec.Set, err)
	}
	if res.Err != "" {
		t.Fatalf("job %s/%s failed: %s", spec.App, spec.Set, res.Err)
	}
	return res
}

// checkBitIdentical asserts a pool job's result equals a fresh run's,
// field by field — the pool-vs-fresh equivalence discipline on the
// deterministic sim backend, where protocol stats and virtual time must
// match bit for bit, not just checksums.
func checkBitIdentical(t *testing.T, label string, got wire.JobResult, want *harness.Result) {
	t.Helper()
	if got.Checksum != want.Checksum {
		t.Errorf("%s: pool checksum %v != fresh %v", label, got.Checksum, want.Checksum)
	}
	if got.VirtualNS != int64(want.Time) {
		t.Errorf("%s: pool virtual time %d != fresh %d", label, got.VirtualNS, int64(want.Time))
	}
	if got.Msgs != want.Msgs || got.Bytes != want.Bytes {
		t.Errorf("%s: pool traffic %d msgs/%d bytes != fresh %d/%d", label, got.Msgs, got.Bytes, want.Msgs, want.Bytes)
	}
	if got.Segv != want.Segv {
		t.Errorf("%s: pool segv %d != fresh %d", label, got.Segv, want.Segv)
	}
	if got.DiffFetches != want.Protocol.DiffFetches {
		t.Errorf("%s: pool diff fetches %d != fresh %d", label, got.DiffFetches, want.Protocol.DiffFetches)
	}
	if got.Barriers != want.Protocol.Barriers || got.LockAcquires != want.Protocol.LockAcquires {
		t.Errorf("%s: pool sync counts %d barriers/%d acquires != fresh %d/%d",
			label, got.Barriers, got.LockAcquires, want.Protocol.Barriers, want.Protocol.LockAcquires)
	}
}

// TestPoolVsFreshEquivalence runs every registry application through
// the pool and demands the same answers a one-shot run gives: on the
// sim backend, bit-identical checksums, protocol stats, and virtual
// times; through a one-shot `-backend=net` run, identical checksums (net
// scheduling makes stats and times wall-dependent, the same split
// TestBackendEquivalence draws). The pool is shared across the whole
// sweep, so each app runs on slots the previous apps just used.
func TestPoolVsFreshEquivalence(t *testing.T) {
	_, cl := startService(t, Config{Slots: 4})
	for _, a := range apps.Registry() {
		spec := wire.JobSpec{App: a.Name, Set: "small", Procs: 4, Verify: true}
		fresh, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.Base, Procs: 4, Verify: true})
		if err != nil {
			t.Fatalf("%s: fresh sim run: %v", a.Name, err)
		}
		checkBitIdentical(t, a.Name+"/sim", mustDo(t, cl, spec), fresh)

		netSpec := spec
		netSpec.Backend = "net"
		freshNet, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.Base, Procs: 4, Verify: true, Backend: harness.BackendNet})
		if err != nil {
			t.Fatalf("%s: fresh net run: %v", a.Name, err)
		}
		poolNet := mustDo(t, cl, netSpec)
		if poolNet.Checksum != freshNet.Checksum {
			t.Errorf("%s/net: pool checksum %v != fresh %v", a.Name, poolNet.Checksum, freshNet.Checksum)
		}
	}
}

// TestPoolReuseResets is the back-to-back case: the same job run twice
// on the same slots must produce bit-identical results — no detector,
// directory, or memory state survives a job. Adaptive and scale modes
// ride along: their detectors and directory arrays are exactly the state
// that would leak if a machine were not built fresh.
func TestPoolReuseResets(t *testing.T) {
	_, cl := startService(t, Config{Slots: 4})
	specs := []wire.JobSpec{
		{App: "jacobi", Set: "small", Procs: 4, Verify: true},
		{App: "jacobi", Set: "bound", Procs: 4, Verify: true, Adapt: true},
		{App: "spmv", Set: "small", Procs: 4, Verify: true, Scale: true},
	}
	for _, spec := range specs {
		cfg, err := JobConfig(spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := harness.Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: fresh run: %v", spec.App, spec.Set, err)
		}
		label := fmt.Sprintf("%s/%s", spec.App, spec.Set)
		checkBitIdentical(t, label+"/first", mustDo(t, cl, spec), fresh)
		checkBitIdentical(t, label+"/reused", mustDo(t, cl, spec), fresh)
	}
}

// TestWarmDirectoryRankSubset pins the rank-subset case: a pool job
// using fewer ranks than the previous one on the same slots must not
// inherit its owner hints. An 8-rank scale job leaves directories whose
// hints name ranks up to 7; a following 4-rank scale job must be
// bit-identical to a fresh 4-rank run, never routing a fetch to a rank
// it does not have.
func TestWarmDirectoryRankSubset(t *testing.T) {
	_, cl := startService(t, Config{Slots: 8})
	wide := wire.JobSpec{App: "spmv", Set: "small", Procs: 8, Verify: true, Scale: true}
	mustDo(t, cl, wide)

	narrow := wire.JobSpec{App: "spmv", Set: "small", Procs: 4, Verify: true, Scale: true}
	cfg, err := JobConfig(narrow)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := harness.Run(cfg)
	if err != nil {
		t.Fatalf("fresh 4-rank scale run: %v", err)
	}
	checkBitIdentical(t, "spmv/rank-subset", mustDo(t, cl, narrow), fresh)
}
