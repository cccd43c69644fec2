package tmk

import (
	"fmt"
	"testing"

	"sdsm/internal/shm"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// benchDiff builds a realistic twin-based diff: runs words modified words
// spread over the page in short runs, as the accumulate phases produce.
func benchDiff(creator int, to int32, words int) *storedDiff {
	d := &storedDiff{
		page: 1, creator: creator,
		from: to - 1, to: to,
		covers: []int32{to, 3, 7, 1, 0, 2, 4, 9},
	}
	runLen := 4
	for off := 0; off < shm.PageWords && vm.RunsWords(d.runs) < words; off += 2 * runLen {
		vals := make([]float64, runLen)
		for i := range vals {
			vals[i] = float64(off + i)
		}
		d.runs = append(d.runs, vm.Run{Off: off, Vals: vals})
	}
	return d
}

// BenchmarkDiffEncode measures converting a cached diff to its wire value
// (the serve path's per-requester copy).
func BenchmarkDiffEncode(b *testing.B) {
	d := benchDiff(0, 5, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := d.toWire()
		if len(w.Runs) == 0 {
			b.Fatal("empty encode")
		}
	}
}

// BenchmarkDiffApply measures merging received wire diffs into a node's
// page image (sort, helps filter, run application, cache insert).
func BenchmarkDiffApply(b *testing.B) {
	s := testSystem(8, 4*shm.PageWords)
	nd := s.Nodes[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			// Bound the cache and coverage growth the bench itself causes.
			b.StopTimer()
			nd.diffs = map[int][]*storedDiff{}
			nd.applied[1] = make([]int32, 8)
			b.StartTimer()
		}
		to := int32(i%1024 + 1)
		reply := []wire.Diff{
			benchDiff(1, to, 128).toWire(),
			benchDiff(2, to, 64).toWire(),
		}
		nd.applyDiffs(reply)
	}
}

// BenchmarkServeDiffs measures answering a diff request against a warm
// cache (the hot path of every fault on the receiving side).
func BenchmarkServeDiffs(b *testing.B) {
	s := testSystem(8, 4*shm.PageWords)
	nd := s.Nodes[0]
	for to := int32(1); to <= 16; to++ {
		nd.storeDiff(benchDiff(0, to, 64))
	}
	applied := [][]int32{make([]int32, 8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, bytes := nd.serveDiffs(3, []int{1}, applied, false)
		if len(out) == 0 || bytes == 0 {
			b.Fatal("nothing served")
		}
	}
}

// BenchmarkWriteNoticeEncode measures converting an interval record (a
// write notice) to its wire value, the per-interval cost of every grant
// and barrier message.
func BenchmarkWriteNoticeEncode(b *testing.B) {
	iv := interval{vc: []int32{5, 3, 7, 1, 0, 2, 4, 9}}
	for pg := 0; pg < 64; pg++ {
		iv.pages = append(iv.pages, wire.PageRef{Page: int32(pg), Whole: pg%7 == 0})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := iv.toWire()
		if len(w.Pages) != 64 {
			b.Fatal("bad encode")
		}
	}
}

// syntheticScaleNode returns node 0 of an n-node scale machine whose
// interval log already holds `epochs` barrier epochs of a rotating-writer
// program: in epoch e every owner o closes one interval writing the
// four-page block (o+e) mod n, knowing every interval up to epoch e. The
// epoch base sits one epoch back, so resetDirectory folds the last one.
func syntheticScaleNode(n, epochs int) *Node {
	const block = 4
	s := testSystemOpts(n, block*n*shm.PageWords, Options{Scale: true})
	nd := s.Nodes[0]
	for e := 1; e <= epochs; e++ {
		vc := make([]int32, n)
		for o := range vc {
			vc[o] = int32(e)
		}
		for o := 0; o < n; o++ {
			iv := interval{vc: vc}
			for k := 0; k < block; k++ {
				pg := block*((o+e)%n) + k
				iv.pages = append(iv.pages, wire.PageRef{Page: int32(pg), Whole: true})
			}
			nd.know[o] = append(nd.know[o], iv)
		}
	}
	for o := 0; o < n; o++ {
		nd.vc[o] = int32(epochs)
		nd.lastBar[o] = int32(epochs - 1)
	}
	return nd
}

// BenchmarkResetDirectory measures the scale directory's barrier-departure
// step at 32 and 128 nodes over a short and a long interval log. Its cost
// should track the epoch's delta and the page count, not the log length.
func BenchmarkResetDirectory(b *testing.B) {
	for _, n := range []int{32, 128} {
		for _, epochs := range []int{10, 1000} {
			b.Run(fmt.Sprintf("n%d/log%d", n, epochs), func(b *testing.B) {
				nd := syntheticScaleNode(n, epochs)
				nd.resetDirectory()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nd.resetDirectory()
				}
			})
		}
	}
}
