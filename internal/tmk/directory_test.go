package tmk

import (
	"fmt"
	"testing"

	"sdsm/internal/cluster"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
)

// oracleDirectory is the directory rebuild that predates the incremental
// fold, kept as the reference the fold must reproduce: it rescans every
// owner's whole interval log and, per page, keys each candidate by how
// many of the page's candidates (over the whole log) its closing time
// knows, the larger owner breaking ties. Same candidate filters as
// foldDirectory.
func oracleDirectory(nd *Node) []int32 {
	type cand struct {
		owner int
		idx   int32
		vc    []int32
	}
	cands := map[int][]cand{}
	for o := range nd.vc {
		for idx := int32(1); idx <= nd.vc[o]; idx++ {
			iv := nd.know[o][idx-1]
			if iv.split {
				continue
			}
			for _, ref := range iv.pages {
				if !ref.Whole && ref.ExtHi == 0 {
					continue
				}
				pg := int(ref.Page)
				cands[pg] = append(cands[pg], cand{owner: o, idx: idx, vc: iv.vc})
			}
		}
	}
	out := make([]int32, nd.Mem.Pages())
	for pg := range out {
		out[pg] = -1
	}
	for pg, cs := range cands {
		best, bestKey := 0, -1
		for i, c := range cs {
			key := 0
			for _, d := range cs {
				if c.vc[d.owner] >= d.idx {
					key++
				}
			}
			if key > bestKey || (key == bestKey && c.owner > cs[best].owner) {
				best, bestKey = i, key
			}
		}
		out[pg] = int32(cs[best].owner)
	}
	return out
}

// assertOracleDirectory checks, after a run that ended at a barrier, that
// every node's probable-owner hints equal the oracle over its own log.
func assertOracleDirectory(t *testing.T, s *System) {
	t.Helper()
	for _, nd := range s.Nodes {
		want := oracleDirectory(nd)
		for pg, o := range want {
			if got := nd.OwnerHint(pg); got != int(o) {
				t.Fatalf("node %d page %d: hint %d, full-log rebuild says %d", nd.ID, pg, got, o)
			}
		}
	}
}

// coldThenHintProgram runs scaleHintProgram after a two-epoch prologue on
// `cold` extra pages past the rotating ones: in the first epoch every
// node writes its own word of cold page ID%cold (concurrent writers of a
// falsely shared page: the tie rule decides), in the second node 0 alone
// rewrites the first cold page (causality decides). No cold page is
// written again, so their post-barrier winners must survive every later
// fold.
func coldThenHintProgram(n, pages, cold, rounds int) func(nd *Node) {
	hint := scaleHintProgram(n, pages, rounds)
	return func(nd *Node) {
		pg := pages + nd.ID%cold
		w(nd, pg*shm.PageWords+nd.ID, float64(nd.ID+1))
		nd.Barrier(3)
		if nd.ID == 0 {
			w(nd, pages*shm.PageWords+shm.PageWords-1, 1)
		}
		nd.Barrier(4)
		hint(nd)
	}
}

// TestScaleDirectoryMatchesOracle pins the incremental directory fold to
// the full-log rebuild it replaced: after the last barrier, every node's
// hints equal the oracle over its own interval log — on the sim and real
// backends, and across a node death whose restore refolds the winners
// from the restored log. (The net backend is covered by
// TestScaleRandomMigrationNet, which checks every seed against the
// oracle.)
func TestScaleDirectoryMatchesOracle(t *testing.T) {
	const n, pages, cold, rounds = 8, 8, 3, 5
	words := (pages + cold) * shm.PageWords
	prog := coldThenHintProgram(n, pages, cold, rounds)

	t.Run("sim", func(t *testing.T) {
		s := testSystemOpts(n, words, Options{Scale: true})
		run(t, s, prog)
		assertOracleDirectory(t, s)
	})

	t.Run("real", func(t *testing.T) {
		h := host.NewReal(n)
		layout := shm.NewLayout()
		layout.Alloc("mem", words)
		s := New(h, cluster.New(h, model.SP2()), layout, Options{Scale: true})
		run(t, s, prog)
		assertOracleDirectory(t, s)
	})

	// The fault fires at the victim's 6th barrier arrival, leaving 6 more
	// barriers of the 12 the program crosses; records are incremental
	// between full ones, so the restore replays a chain.
	for _, victim := range []int{0, 5} {
		t.Run(fmt.Sprintf("recover-rank-%d", victim), func(t *testing.T) {
			rc := &RecoveryConfig{Sink: NewMemSink(), Every: 3, Fault: &Fault{Rank: victim, Epoch: 6}}
			s := testSystemOpts(n, words, Options{Scale: true, Recovery: rc})
			run(t, s, prog)
			if got := s.Nodes[victim].RecStats.Restores; got != 1 {
				t.Fatalf("node %d restored %d times, want 1", victim, got)
			}
			if b := s.Nodes[victim].Stats.Barriers; b < 6+2 {
				t.Fatalf("only %d barriers; the restore must be followed by at least two", b)
			}
			assertOracleDirectory(t, s)
		})
	}
}

// TestScaleResetDirectoryAllocs pins the departure-time directory fold
// at zero steady-state allocations on a warmed 32-node machine: the
// candidate buffer is reused and the sort takes no closure state. Node
// 0's epoch base is rewound to the previous departure, so each call
// refolds the final epoch's delta.
func TestScaleResetDirectoryAllocs(t *testing.T) {
	const n, pages, rounds = 32, 32, 4
	s := testSystemOpts(n, pages*shm.PageWords, Options{Scale: true})
	var prev []int32
	hint := scaleHintProgram(n, pages, rounds)
	run(t, s, func(nd *Node) {
		hint(nd)
		if nd.ID == 0 {
			prev = append([]int32(nil), nd.lastBar...)
		}
		w(nd, nd.ID*shm.PageWords, 1)
		nd.Barrier(1)
	})
	nd := s.Nodes[0]
	copy(nd.lastBar, prev)
	nd.resetDirectory()
	if len(nd.dirCands) == 0 {
		t.Fatal("the rewound epoch folds no candidates; the gate measures nothing")
	}
	if allocs := testing.AllocsPerRun(100, nd.resetDirectory); allocs != 0 {
		t.Fatalf("resetDirectory: %v allocations per call, want 0", allocs)
	}
}
