package tmk

import (
	"testing"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
)

// TestNetMigratoryCounter hammers the migratory-data pattern (IS's
// accumulate phase) on the net backend: every node repeatedly increments
// counters on a shared page under a lock. Any lost update is a protocol
// bug in the wire transport's serve/grant paths.
func TestNetMigratoryCounter(t *testing.T) {
	const procs = 3
	const iters = 50
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		nw, err := host.NewNet(procs, model.SP2())
		if err != nil {
			t.Fatal(err)
		}
		layout := shm.NewLayout()
		arr := layout.Alloc("x", 2*shm.PageWords)
		sys := New(nw, nw, layout, Options{})
		err = sys.Run(func(nd *Node) {
			for it := 0; it < iters; it++ {
				nd.Acquire(7)
				r := shm.Region{Lo: arr.Base + nd.ID*3, Hi: arr.Base + nd.ID*3 + 3}
				all := shm.Region{Lo: arr.Base, Hi: arr.Base + 9}
				nd.Mem.EnsureRead(nd.Proc(), all)
				nd.Mem.EnsureWrite(nd.Proc(), r)
				nd.Proc().BeginCompute()
				for w := r.Lo; w < r.Hi; w++ {
					nd.Mem.Data()[w]++
				}
				nd.Proc().EndCompute()
				nd.Release(7)
			}
			nd.Barrier(1)
			if nd.ID == 0 {
				nd.Validate(AccRead, []shm.Region{arr.Whole()}, false)
				nd.Mem.EnsureRead(nd.Proc(), arr.Whole())
				for i := 0; i < procs*3; i++ {
					if got := nd.Mem.Data()[arr.Base+i]; got != iters {
						t.Errorf("round %d word %d = %v, want %d", round, i, got, iters)
					}
				}
			}
		})
		nw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			break
		}
	}
}

// TestNetStaggeredLockChains is the IS merge pattern — staggered section
// locks over false-shared pages, then a global read phase — on the net
// backend. It regression-tests the coverage-based diff ordering: with
// genuinely asynchronous serves, a lazily flushed diff can span epochs and
// carry a closing time that postdates a fresher concurrent diff, so
// applying by closing time regressed accumulated sections (lost updates)
// until diffs were ordered by their applied-coverage instead.
func TestNetStaggeredLockChains(t *testing.T) {
	const n = 3
	sectionWords := shm.PageWords / 2
	iters := 3
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
		s := New(nw, nw, layout, Options{})
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
