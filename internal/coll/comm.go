package coll

import (
	"fmt"
	"sort"

	"repro/internal/rank"
)

// Comm is the communication context a collective operation runs in — the
// MPI communicator of the paper's notation (§2.2 assumes one group and
// omits comm; this layer supplies the general case). A Comm names a group
// of processors, gives the caller its rank within the group, and carries
// its own tag sequence so that collectives on different groups never
// cross-talk. A rank of any backend — *machine.Proc, *backend.Proc,
// *mpbackend.Proc, all one rank.Core over that backend's link — is the
// communicator spanning its whole machine, the analogue of MPI_COMM_WORLD;
// Sub and Split derive subgroups. Package chaos injects faults beneath a
// rank's message discipline (rank.Core.Decorate), so a chaos-wrapped rank
// is still just a rank.
//
// # Ownership
//
// A value crosses a link in one of two ways. Send and Exchange lend it:
// the reference (or a copy, on a link that copies or serializes) reaches
// the receiver, the sender may keep reading it, and neither side may write
// it — received values are frozen. SendMove gives it away: the sender must
// not observe the value again (a *algebra.FlatTuple is poisoned, so a stray
// access panics; see algebra.FlatTuple.MarkMoved) and the matching
// RecvOwned reports true, making the receiver the new owner, entitled to
// write the value in place. On a zero-copy link that
// turns a large-m send into an O(1) reference hand-off; on a copying or
// serializing link the receiver owns its copy and the sender's value is
// poisoned all the same, so programs keep one ownership discipline
// everywhere. A link that cannot transfer ownership (the virtual machine's,
// a chaos-wrapped one) delivers a borrow: SendMove is Send, nothing is
// poisoned, and RecvOwned reports false.
type Comm interface {
	// Rank is the caller's rank within this group.
	Rank() int
	// Size is the number of group members.
	Size() int
	// Send ships v to group rank dst, as a borrow.
	Send(dst int, v Value, tag int)
	// Recv receives the next tagged message from group rank src.
	Recv(src, tag int) Value
	// Exchange performs the simultaneous bidirectional swap with the
	// group rank partner; both values are borrows.
	Exchange(partner int, v Value, tag int) Value
	// SendMove ships v to dst, transferring ownership to the receiver.
	// Only call with values this rank owns for writing (arena scratch it
	// has not shipped) — never with a caller's input.
	SendMove(dst int, v Value, tag int)
	// RecvOwned receives like Recv and reports whether the message
	// transferred ownership: true means the caller may write the value in
	// place, false means it is a borrowed frozen reference.
	RecvOwned(src, tag int) (Value, bool)
	// Compute charges local computation time.
	Compute(n float64)
	// NextTag returns a fresh tag, synchronized across the group.
	NextTag() int
	// Caps is what the communicator offers beyond messages: the rank's
	// scratch arena and its stage-mark hook, each nil when absent.
	Caps() rank.Caps
}

// sub is a subgroup communicator: group rank i maps to parent rank
// ranks[i].
type sub struct {
	parent Comm
	ranks  []int
	rank   int
	tagseq int
}

// Sub builds the subgroup of parent consisting of the given parent ranks
// (which must be distinct and include the caller). Every listed member
// must call Sub with the same rank list; the caller's group rank is its
// index in the list.
func Sub(parent Comm, ranks []int) Comm {
	seen := make(map[int]bool, len(ranks))
	me := -1
	for i, r := range ranks {
		if r < 0 || r >= parent.Size() {
			panic(fmt.Sprintf("coll: Sub rank %d out of range [0,%d)", r, parent.Size()))
		}
		if seen[r] {
			panic(fmt.Sprintf("coll: Sub rank %d listed twice", r))
		}
		seen[r] = true
		if r == parent.Rank() {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("coll: caller rank %d not in subgroup %v", parent.Rank(), ranks))
	}
	return &sub{parent: parent, ranks: append([]int(nil), ranks...), rank: me}
}

func (s *sub) Rank() int { return s.rank }
func (s *sub) Size() int { return len(s.ranks) }

func (s *sub) Send(dst int, v Value, tag int) {
	s.parent.Send(s.ranks[dst], v, tag)
}

func (s *sub) Recv(src, tag int) Value {
	return s.parent.Recv(s.ranks[src], tag)
}

func (s *sub) Exchange(partner int, v Value, tag int) Value {
	return s.parent.Exchange(s.ranks[partner], v, tag)
}

func (s *sub) SendMove(dst int, v Value, tag int) { s.parent.SendMove(s.ranks[dst], v, tag) }

func (s *sub) RecvOwned(src, tag int) (Value, bool) { return s.parent.RecvOwned(s.ranks[src], tag) }

func (s *sub) Compute(n float64) { s.parent.Compute(n) }

// Caps shares the rank's arena and mark hook with the parent (subgroup
// collectives draw scratch from the same arena as full-group ones).
func (s *sub) Caps() rank.Caps { return s.parent.Caps() }

func (s *sub) NextTag() int {
	s.tagseq++
	// Offset subgroup tags so a sloppy caller mixing parent and
	// subgroup collectives gets a tag-mismatch panic instead of silent
	// cross-talk.
	return 1<<20 + s.tagseq
}

// Split partitions the communicator by color, MPI_Comm_split-style: every
// member calls Split with its color and key; members with equal color
// form a new group, ordered by (key, parent rank). The implementation
// allgathers the (color, key) pairs and builds the subgroup
// deterministically, so all members agree without further communication.
func Split(c Comm, color, key int) Comm {
	type entry struct{ rank, color, key int }
	pairs := AllGather(c, pairValue(color, key))
	entries := make([]entry, 0, len(pairs))
	for r, pv := range pairs {
		col, k := pairFields(pv)
		if col == color {
			entries = append(entries, entry{rank: r, color: col, key: k})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		return entries[i].rank < entries[j].rank
	})
	ranks := make([]int, len(entries))
	for i, e := range entries {
		ranks[i] = e.rank
	}
	return Sub(c, ranks)
}
