package tmk

import (
	"testing"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
)

// migratoryRotation runs the canonical migratory-data shape on the sim
// backend: n nodes repeatedly increment every word of a shared page under
// one lock, in a naturally stable rotation. Returns the system for stats
// inspection; the final page content is verified inside.
func migratoryRotation(t *testing.T, adaptOn bool, iters int) *System {
	t.Helper()
	const n = 3
	const words = 8
	var opts Options
	if adaptOn {
		opts.Adapt = &adapt.Config{K: 2}
	}
	s := testSystemOpts(n, shm.PageWords, opts)
	run(t, s, func(nd *Node) {
		for it := 0; it < iters; it++ {
			nd.Acquire(5)
			reg := shm.Region{Lo: 0, Hi: words}
			nd.Mem.EnsureRead(nd.p, reg)
			nd.Mem.EnsureWrite(nd.p, reg)
			nd.p.BeginCompute()
			d := nd.Mem.Data()
			for w := 0; w < words; w++ {
				d[w]++
			}
			nd.p.EndCompute()
			nd.p.Advance(50 * time.Microsecond)
			nd.Release(5)
		}
		nd.Barrier(1)
		nd.Mem.EnsureRead(nd.p, shm.Region{Lo: 0, Hi: words})
		for w := 0; w < words; w++ {
			if got := nd.Mem.Data()[w]; got != float64(n*iters) {
				t.Errorf("adapt=%v node %d word %d = %v, want %d", adaptOn, nd.ID, w, got, n*iters)
			}
		}
	})
	return s
}

// TestLockAdaptMigratoryRotation pins the tentpole's effect at the
// protocol level: under a stable lock rotation the per-lock detector
// binds the hand-off edges, grants start piggybacking the page's diffs,
// and the in-critical-section demand fetches (lock faults) drop — with
// the final memory image identical to the adapt-off run.
func TestLockAdaptMigratoryRotation(t *testing.T) {
	const iters = 12
	base := migratoryRotation(t, false, iters)
	ad := migratoryRotation(t, true, iters)
	_, bps := base.Stats()
	_, aps := ad.Stats()
	if aps.AdaptLockPromotions == 0 {
		t.Fatalf("no hand-off edges promoted: %+v", aps)
	}
	if aps.AdaptLockGrants == 0 {
		t.Fatalf("no grants carried piggybacked diffs: %+v", aps)
	}
	if aps.LockFetches >= bps.LockFetches {
		t.Errorf("lock faults %d not below baseline %d", aps.LockFetches, bps.LockFetches)
	}
	if bps.AdaptLockGrants != 0 || bps.AdaptLockPromotions != 0 {
		t.Errorf("baseline run counted adaptive lock stats: %+v", bps)
	}
}

// TestLockAdaptDecayOnOutsideWriter: a writer that modifies a bound page
// outside the lock chain makes the piggyback insufficient — the acquirer
// faults anyway, and the detector must decay the binding rather than keep
// pushing stale predictions. Correctness is never at stake (the fault
// path fills the gap); this pins the decay rule end to end.
func TestLockAdaptDecayOnOutsideWriter(t *testing.T) {
	const n = 3
	const words = 8
	const iters = 14
	s := testSystemOpts(n, 2*shm.PageWords, Options{Adapt: &adapt.Config{K: 2}})
	run(t, s, func(nd *Node) {
		for it := 0; it < iters; it++ {
			nd.Acquire(5)
			reg := shm.Region{Lo: 0, Hi: words}
			nd.Mem.EnsureRead(nd.p, reg)
			nd.Mem.EnsureWrite(nd.p, reg)
			nd.p.BeginCompute()
			d := nd.Mem.Data()
			for w := 0; w < words; w++ {
				d[w]++
			}
			nd.p.EndCompute()
			nd.p.Advance(50 * time.Microsecond)
			nd.Release(5)
			if it == iters/2 {
				// Mid-run, every node writes the page OUTSIDE the lock in
				// its own disjoint slot, separated by barriers (data-race
				// free, but invisible to the lock chain).
				nd.Barrier(2)
				nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: words + nd.ID, Hi: words + nd.ID + 1})
				nd.p.BeginCompute()
				nd.Mem.Data()[words+nd.ID] = float64(100 + nd.ID)
				nd.p.EndCompute()
				nd.Barrier(3)
			}
		}
		nd.Barrier(1)
		nd.Mem.EnsureRead(nd.p, shm.Region{Lo: 0, Hi: words + n})
		for w := 0; w < words; w++ {
			if got := nd.Mem.Data()[w]; got != float64(n*iters) {
				t.Errorf("node %d word %d = %v, want %d", nd.ID, w, got, n*iters)
			}
		}
		for w := 0; w < n; w++ {
			if got := nd.Mem.Data()[words+w]; got != float64(100+w) {
				t.Errorf("node %d outside word %d = %v, want %d", nd.ID, w, got, 100+w)
			}
		}
	})
	_, ps := s.Stats()
	if ps.AdaptLockPromotions == 0 {
		t.Fatalf("rotation never promoted: %+v", ps)
	}
	if ps.AdaptLockDecays == 0 {
		t.Fatalf("outside write never decayed a binding: %+v", ps)
	}
}

// TestNetStaggeredLockChainsAdapt is the staggered-lock-chain stress
// (TestNetStaggeredLockChains) with the adaptive protocol on: genuinely
// concurrent nodes over the wire backend, migratory sections under
// rotating locks, grants carrying piggybacked diffs. Any lost update or
// race in the piggyback path fails the content checks; CI runs this under
// -race.
func TestNetStaggeredLockChainsAdapt(t *testing.T) {
	const n = 3
	sectionWords := shm.PageWords / 2
	iters := 4
	total := n * sectionWords
	rounds := 10
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		nw, err := host.NewNet(n, model.SP2())
		if err != nil {
			t.Fatal(err)
		}
		layout := shm.NewLayout()
		layout.Alloc("mem", total)
		s := New(nw, nw, layout, Options{Adapt: &adapt.Config{K: 2}})
		err = s.Run(func(nd *Node) {
			for it := 0; it < iters; it++ {
				lo := nd.ID * sectionWords
				nd.Acquire(nd.ID)
				nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: lo, Hi: lo + sectionWords})
				nd.p.BeginCompute()
				d := nd.Mem.Data()
				for w := lo; w < lo+sectionWords; w++ {
					d[w] = 0
				}
				nd.p.EndCompute()
				nd.Release(nd.ID)
				nd.p.Advance(time.Duration(nd.ID+1) * 37 * time.Microsecond)
				nd.Barrier(3)
				for ph := 0; ph < n; ph++ {
					sec := (nd.ID + ph) % n
					slo := sec * sectionWords
					nd.Acquire(sec)
					nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: slo, Hi: slo + sectionWords})
					nd.Mem.EnsureRead(nd.p, shm.Region{Lo: slo, Hi: slo + sectionWords})
					nd.p.BeginCompute()
					d := nd.Mem.Data()
					for w := slo; w < slo+sectionWords; w++ {
						d[w] += float64(nd.ID + 1)
					}
					nd.p.EndCompute()
					nd.p.Advance(time.Duration(sectionWords) * 100 * time.Nanosecond)
					nd.Release(sec)
				}
				nd.Barrier(1)
				nd.Mem.EnsureRead(nd.p, shm.Region{Lo: 0, Hi: total})
				want := 0.0
				for w := 1; w <= n; w++ {
					want += float64(w)
				}
				for w := 0; w < total; w++ {
					if d := nd.Mem.Data()[w]; d != want {
						t.Errorf("round %d node %d iter %d word %d: got %v want %v", round, nd.ID, it, w, d, want)
						return
					}
				}
				nd.Barrier(2)
			}
		})
		nw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}
	}
}
