package tmk

import (
	"cmp"
	"math/bits"
	"slices"

	"sdsm/internal/wire"
)

// Distributed per-page ownership directory (DESIGN.md §12).
//
// The base protocol routes every diff fetch by write notices alone: the
// requester asks the noticed owners, so a page written by one node and
// read by many turns its writer into a serve hot spot — at 64 or 128
// nodes the writer answers one request per reader per epoch while
// everyone else answers none. Scale mode (Options.Scale) adds an IVY-style
// dynamic manager per page, adapted to this protocol's "anyone who
// applied the chain can serve it" property:
//
//   - dirOwner[pg] is the requester-side probable owner — the last
//     writer as this node learned it (learnInterval), itself after a
//     local write (closeInterval/splitInterval), or whatever a
//     forwarding chain taught it (chaseRedirects).
//
//   - dirNext[pg] is the responder-side delegation: the node this
//     responder most recently shipped pg's chain to. A later request for
//     the page is answered with a redirect to that delegate instead of a
//     payload, and the delegation moves to the new requester — so the
//     k-th reader of a hot page is served by the (k-1)-th, spreading the
//     serve load across the reader chain while the writer answers one
//     payload plus cheap redirects. Every new write or learned notice
//     clears the delegation (the delegate's copy is stale for the new
//     interval).
//
// Forwarding is requester-driven: serve handlers run under the
// machine-wide protocol token and must never issue requests of their own
// (an in-handler forward would deadlock), so the responder only returns
// the hint and the requester follows the chain (chaseRedirects), hop
// capped and cycle checked. A chain that exhausts falls back to a Direct
// fetch from the noticed owner — who can always serve its own diffs —
// through completeInflight's retry, so directory staleness can delay but
// never lose an update; the retry's unresolved-notice panic stays the
// backstop.
//
// Determinism: mid-epoch hints depend on serve order, which the
// concurrent backends do not reproduce. At every barrier departure
// resetDirectory overwrites both arrays with a per-page winner that is a
// pure function of the merged notice set — identical at every node and
// on every backend — so the post-barrier directory state is a pure
// function of relayed observations, the same replicated-decision rule
// the adaptive layer follows (package-comment invariant four). The
// winner is kept incrementally: each departure folds in only the epoch's
// new intervals, because causality freezes every older winner
// (foldDirectory), so the per-barrier cost tracks what the barrier
// changed rather than how long the run has been going. Memory content
// never depends on the directory at all; routing only picks who serves
// an identical chain.

// initDirectory gives a node its empty ownership directory. Scale mode
// (Options.Scale) is the directory above plus span-compressed,
// broadcast-once accounting for the barrier fetch-list relay (see
// relayFetchedBytes and runBarrier). Off, the protocol and its
// accounting are bit-identical to a machine without the directory — the
// paper tables and the adapt goldens pin that. All three arrays start at
// -1 (no hint, no delegation, no winner), not 0: 0 is a valid rank.
func (nd *Node) initDirectory() {
	pages := nd.Mem.Pages()
	nd.dirOwner = make([]int32, pages)
	nd.dirNext = make([]int32, pages)
	nd.dirWin = make([]int32, pages)
	nd.clearDirectory()
}

// clearDirectory drops every hint, delegation and post-barrier winner.
func (nd *Node) clearDirectory() {
	for pg := range nd.dirOwner {
		nd.dirOwner[pg] = -1
		nd.dirNext[pg] = -1
		nd.dirWin[pg] = -1
	}
}

// ScaleOn reports whether the machine runs with the ownership directory.
func (s *System) ScaleOn() bool { return s.scale }

// OwnerHint returns a node's current probable-owner hint for a page (-1
// unknown). Deterministic across backends only at barrier points, where
// resetDirectory has set the directory from the merged notice set.
func (nd *Node) OwnerHint(pg int) int {
	if nd.dirOwner == nil {
		return -1
	}
	return int(nd.dirOwner[pg])
}

// noteWritten records a local write: this node is the page's probable
// owner and any previous delegation is stale.
func (nd *Node) noteWritten(pg int) {
	if nd.dirOwner == nil {
		return
	}
	nd.dirOwner[pg] = int32(nd.ID)
	nd.dirNext[pg] = -1
}

// noteRemoteWrite records a learned write notice: the writer becomes the
// probable owner and this node's delegation for the page is stale.
func (nd *Node) noteRemoteWrite(pg, owner int) {
	if nd.dirOwner == nil {
		return
	}
	nd.dirOwner[pg] = int32(owner)
	nd.dirNext[pg] = -1
}

// dirHopCap bounds a forwarding chase. IVY's probable-owner graph gives
// chains logarithmic in machine size under path compression; the +2
// absorbs the mid-epoch staleness this weaker (hint, not invariant)
// directory allows before the Direct fallback takes over.
func (nd *Node) dirHopCap() int {
	return 2 + bits.Len(uint(nd.sys.N()))
}

// chaseRedirects follows the forwarding hints a fetch round returned
// instead of payloads: pages still pending are re-requested from their
// hinted owners, hop by hop, until served, cycled, or hop capped. Each
// hop rewrites dirOwner, so the chain shortens for this node's next
// fault. Pages a chase cannot resolve are left pending for the caller's
// Direct retry (completeInflight), counted as fallbacks.
func (nd *Node) chaseRedirects(redirs []wire.PageOwner) {
	hopCap := nd.dirHopCap()
	visited := map[int]map[int]bool{} // page -> responders already asked
	for hop := 0; hop < hopCap && len(redirs) > 0; hop++ {
		reqs := map[int][]int{} // responder -> pages
		for _, po := range redirs {
			pg, owner := int(po.Page), int(po.Owner)
			if len(nd.pending[pg]) == 0 || owner == nd.ID {
				continue
			}
			if owner < 0 || owner >= nd.sys.N() {
				// Redirect lists are wire input: a hint naming a rank
				// outside this machine must not become a request to a
				// rank that does not exist. Leave the page to the Direct
				// fallback, which asks the noticed owner.
				nd.Stats.DirFallbacks++
				continue
			}
			if visited[pg][owner] {
				continue // cycle: leave the page to the Direct fallback
			}
			if visited[pg] == nil {
				visited[pg] = map[int]bool{}
			}
			visited[pg][owner] = true
			nd.dirOwner[pg] = po.Owner
			reqs[owner] = append(reqs[owner], pg)
		}
		if len(reqs) == 0 {
			break
		}
		redirs = redirs[:0]
		var round []wire.Diff
		for _, r := range sortedKeys(reqs) {
			pgs := dedupInts(reqs[r])
			if nd.tr != nil {
				nd.traceFetchReq(pgs[0], r, len(pgs))
			}
			pd := nd.sys.NW.StartRequest(nd.p, r, nd.diffRequest(pgs), 16+8*len(pgs))
			nd.sys.NW.Await(nd.p, pd)
			nd.Stats.DiffFetches++
			nd.Stats.DirHops++
			rep := pd.Reply.(wire.DiffReply)
			round = append(round, rep.Diffs...)
			redirs = append(redirs, rep.Redirects...)
		}
		nd.applyDiffs(round)
	}
	for pg := range visited {
		if len(nd.pending[pg]) > 0 {
			nd.Stats.DirFallbacks++
		}
	}
}

// resetDirectory sets the node's directory at a barrier departure to a
// pure function of the merged notice set: every delegation is cleared and
// every hint becomes its page's post-barrier winner — among the writes
// the machine now knows about, the one with the causally latest closing
// time (-1 for a page never written). All nodes hold identical notice
// sets after a departure, so every replica computes the same directory,
// and pages untouched this epoch get that deterministic winner back
// rather than retaining schedule-dependent mid-epoch values. Called
// before lastBar advances, so the epoch's new intervals are exactly
// (lastBar, vc] — the delta adaptStep walks — and only they are folded
// into the persistent winner map dirWin (foldDirectory).
func (nd *Node) resetDirectory() {
	nd.foldDirectory(nd.lastBar, nd.vc)
	copy(nd.dirOwner, nd.dirWin)
	for pg := range nd.dirNext {
		nd.dirNext[pg] = -1
	}
}

// dirCand is one write candidate of a directory fold: owner's interval
// idx, closed at vector time vc, wrote page.
type dirCand struct {
	page, owner, idx int32
	vc               []int32
}

// foldDirectory folds the intervals (from[o], to[o]] of every owner o
// into dirWin as one batch. resetDirectory folds each epoch's delta;
// restore folds the restored log once from zero, and a single batch over
// the whole log is the winner rule applied from scratch.
//
// The decision must be identical across BACKENDS, and the raw interval
// log is not: serve-path splits (splitInterval) appear at
// schedule-dependent chain positions, and a twin-based page that stays
// dirty across a close is re-noticed with an empty extent — whether that
// happens depends on when the invalidate-path flush raced the close. Two
// filters restore determinism. Candidates are only the refs that carry a
// fresh write extent (Whole or extHi > 0) in non-split intervals: split
// refs peek the extent the next close records anyway, and empty-extent
// re-notices carry no write fact at all, so what survives is exactly one
// ref per genuine (writer, epoch, page) write — the same set on every
// backend. The winner among a page's candidates is the causally latest:
// each candidate is keyed by how many of the page's candidates its
// closing time knows (c.vc[d.owner] ≥ d.idx — a comparison whose outcome
// only depends on the barrier structure, not on how splits and
// re-notices inflate either side's chain). Ties — concurrent writers of
// a falsely shared page — break on the larger owner id. Two candidates
// of one owner never tie (the later knows the earlier), so the winner is
// independent of candidate order.
//
// Folding only the delta is exact. Every candidate in a departure's
// delta was closed by its owner after that owner left the previous
// barrier, so its closing time dominates the previous departure's merged
// vector time: it knows every older candidate, while no older candidate
// knows it. Keyed over the whole log, each new candidate therefore
// scores the number of the page's older candidates plus its in-batch
// key, and every older candidate at most that number — below any new
// one.
// So a page with candidates in the batch takes its winner from the batch
// alone, ordered by the in-batch key, and a page without keeps its
// previous winner. Per-barrier cost is the epoch delta plus the page
// count, however long the log has grown.
func (nd *Node) foldDirectory(from, to []int32) {
	cs := nd.dirCands[:0]
	for o := range to {
		for idx := from[o] + 1; idx <= to[o]; idx++ {
			iv := nd.know[o][idx-1]
			if iv.split {
				continue
			}
			for _, ref := range iv.pages {
				if !ref.Whole && ref.ExtHi == 0 {
					continue // dirty-persist re-notice: no new write fact
				}
				cs = append(cs, dirCand{page: ref.Page, owner: int32(o), idx: idx, vc: iv.vc})
			}
		}
	}
	nd.dirCands = cs
	slices.SortFunc(cs, func(a, b dirCand) int { return cmp.Compare(a.page, b.page) })
	for lo := 0; lo < len(cs); {
		hi := lo + 1
		for hi < len(cs) && cs[hi].page == cs[lo].page {
			hi++
		}
		batch := cs[lo:hi]
		best, bestKey := int32(-1), -1
		for _, c := range batch {
			key := 0
			for _, d := range batch {
				if c.vc[d.owner] >= d.idx {
					key++
				}
			}
			if key > bestKey || (key == bestKey && c.owner > best) {
				best, bestKey = c.owner, key
			}
		}
		nd.dirWin[cs[lo].page] = best
		lo = hi
	}
}

// relayFetchedBytes is the accounted wire size of one relayed barrier
// fetch list under the active mode: the flat version-2 formula off scale
// (8 + 4 per page, pinned by the paper-era goldens), the version-7
// raw-or-span size under scale — dense epoch working sets cost two words
// per contiguous run instead of one per page.
func (s *System) relayFetchedBytes(pages []int32) int {
	if s.scale {
		return wire.FetchedBytes(pages)
	}
	return adaptFetchedBytes(len(pages))
}

// ServeBalance summarizes how evenly diff-serve load spread across the
// machine: the maximum and mean per-node count of diff requests answered
// with payload. The scaling table reports max/mean; the directory's job
// is keeping it near 1 on single-writer many-reader pages.
func (s *System) ServeBalance() (max int64, mean float64) {
	var total int64
	for _, nd := range s.Nodes {
		c := nd.Stats.DiffServes
		total += c
		if c > max {
			max = c
		}
	}
	if n := len(s.Nodes); n > 0 {
		mean = float64(total) / float64(n)
	}
	return max, mean
}
