package coll

import "fmt"

// AllToAll performs the personalized all-to-all exchange: every member i
// supplies one value destined for each member j (parts[j]) and receives
// the value each member addressed to it, in rank order. The
// implementation runs p−1 rounds; in round r, rank i exchanges with rank
// i xor r when the group size is a power of two (a perfect pairing), and
// with partners (i+r) mod p / (i−r) mod p otherwise, ordered by rank to
// stay deadlock-free. Each round moves one block per member, so the time
// is (p−1)·(ts + m·tw) — all-to-all is inherently linear in p under the
// fully connected one-port model.
func AllToAll(c Comm, parts []Value) []Value {
	tag := c.NextTag()
	n := c.Size()
	if len(parts) != n {
		panic(fmt.Sprintf("coll: AllToAll needs %d parts, got %d", n, len(parts)))
	}
	rank := c.Rank()
	out := make([]Value, n)
	out[rank] = parts[rank]
	if n == 1 {
		return out
	}
	if IsPow2(n) {
		for r := 1; r < n; r++ {
			partner := rank ^ r
			out[partner] = c.Exchange(partner, parts[partner], tag)
		}
		return out
	}
	for r := 1; r < n; r++ {
		sendTo := (rank + r) % n
		recvFrom := (rank - r + n) % n
		if sendTo == recvFrom {
			// Mutual pairing: a single bidirectional exchange.
			out[sendTo] = c.Exchange(sendTo, parts[sendTo], tag)
			continue
		}
		// Order the two one-directional transfers by rank parity of the
		// round offset to avoid a cyclic wait: lower global rank in the
		// (rank, sendTo) pair sends first.
		if rank < sendTo {
			c.Send(sendTo, parts[sendTo], tag)
			out[recvFrom] = c.Recv(recvFrom, tag)
		} else {
			out[recvFrom] = c.Recv(recvFrom, tag)
			c.Send(sendTo, parts[sendTo], tag)
		}
	}
	return out
}
