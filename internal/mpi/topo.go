package mpi

import (
	"fmt"
	"math"
	"sort"
)

// Topo is a distributed graph process topology, the analogue of a
// communicator created with MPI_Dist_graph_create_adjacent. Each rank
// declares the set of ranks it communicates with; neighborhood collectives
// then involve only those ranks. The topology must be symmetric: if j is
// a neighbor of i, then i must be a neighbor of j (CreateGraphTopo
// verifies this and panics otherwise, since an asymmetric topology would
// deadlock neighborhood collectives).
//
// Neighborhood traffic never enters the point-to-point mailbox. Every
// directed arc of the topology has its own inbound slot at the receiver
// (arcq), found by the sender's position in the receiver's neighbor
// list, which CreateGraphTopo resolves once into a direct pointer.
type Topo struct {
	c         *Comm
	neighbors []int
	index     map[int]int // neighbor rank -> position in neighbors
	// in[i] queues the chunks neighbors[i] has sent this rank and it has
	// not yet received. Guarded by this rank's mailbox lock.
	in []arcq
	// out[i] is neighbors[i]'s inbound arc from this rank, nil when
	// neighbors[i] does not list this rank (an asymmetric topology).
	out   []*arcq
	spare []int64 // buffer the fixed-chunk receive and the handshake trade with each arc
	seq   int64   // per-call sequence, advances identically on all members
}

// arcEnt is one chunk in flight on an arc: the topology call it belongs
// to, its virtual arrival and injection stamps, and its payload.
type arcEnt struct {
	seq    int64
	arrive float64
	sent   float64
	data   []int64
}

// arcq is one inbound arc: the chunks a single neighbor has sent and the
// receiver has not yet taken, in send order. A receive takes the oldest
// chunk of its call — normally the front; a blocking call may overtake
// a nonblocking or persistent round still in flight. Entries beyond
// len(ents) are spares whose buffers later chunks are copied into: a
// receive hands the caller the chunk's buffer and keeps the caller's
// old buffer as a spare in its place, so capacity circulates between
// the arc and the caller and steady-state rounds allocate nothing.
// Guarded by the receiving rank's mailbox lock.
type arcq struct {
	ents []arcEnt
}

func (q *arcq) push(seq int64, arrive, sent float64, data []int64) {
	n := len(q.ents)
	if n == cap(q.ents) {
		q.ents = append(q.ents, arcEnt{})
	} else {
		q.ents = q.ents[:n+1]
	}
	e := &q.ents[n]
	e.seq, e.arrive, e.sent = seq, arrive, sent
	e.data = append(e.data[:0], data...)
}

// find returns the position of the oldest chunk of call seq, or -1.
func (q *arcq) find(seq int64) int {
	for k := range q.ents {
		if q.ents[k].seq == seq {
			return k
		}
	}
	return -1
}

// take removes and returns chunk k, keeping spare's storage on the arc.
func (q *arcq) take(k int, spare []int64) arcEnt {
	e := q.ents[k]
	last := len(q.ents) - 1
	copy(q.ents[k:], q.ents[k+1:])
	q.ents[last] = arcEnt{data: spare[:0]}
	q.ents = q.ents[:last]
	return e
}

// reset drops chunks still in flight (a request that was started but
// never completed) and keeps every buffer as a spare, shedding
// oversized ones as pooled messages do.
func (q *arcq) reset() {
	ents := q.ents[:cap(q.ents)]
	for i := range ents {
		d := ents[i].data
		if cap(d) > spillRetainWords {
			d = nil
		}
		ents[i] = arcEnt{data: d[:0]}
	}
	q.ents = ents[:0]
}

// handshakeSeq marks the symmetry handshake's chunks, which precede
// every call (sequence 0 onward) on each arc.
const handshakeSeq = -1

// CreateGraphTopo collectively creates a distributed graph topology from
// each rank's adjacency list. The call is collective over the world (as
// MPI_Dist_graph_create_adjacent is over its communicator); ranks with no
// neighbors pass an empty list. Neighbor order is preserved: buffers in
// neighborhood collectives are laid out in this order, exactly as in MPI.
func (c *Comm) CreateGraphTopo(neighbors []int) *Topo {
	idx := make(map[int]int, len(neighbors))
	for i, nb := range neighbors {
		c.checkRank(nb, "CreateGraphTopo")
		if nb == c.rank {
			panic(fmt.Sprintf("mpi: CreateGraphTopo: rank %d listed itself as a neighbor", c.rank))
		}
		if _, dup := idx[nb]; dup {
			panic(fmt.Sprintf("mpi: CreateGraphTopo: rank %d listed neighbor %d twice", c.rank, nb))
		}
		idx[nb] = i
	}
	t := &Topo{
		c:         c,
		neighbors: append([]int(nil), neighbors...),
		index:     idx,
		in:        c.mbox().arcSet(len(neighbors)),
		out:       make([]*arcq, len(neighbors)),
	}

	// Rendezvous, charged as the 8-byte broadcast of a topology handle:
	// every member publishes its Topo, and each rank resolves its
	// outbound arcs to the inbound slots its neighbors hold for it.
	// Topos are complete before they are published and never change
	// shape afterwards, so reading a peer's index after the barrier is
	// race-free.
	h, p, tmax, last := c.enterColl(func(h *collHub, p int) {
		h.ensureTdeps()
		h.tdeps[p][c.rank] = t
	})
	for i, nb := range neighbors {
		peer := h.tdeps[p][nb]
		if j, ok := peer.index[c.rank]; ok {
			t.out[i] = &peer.in[j]
		}
	}
	c.exitColl(tmax, last, 8)

	if c.size() <= topoVerifyDenseLimit {
		// Small worlds: the rendezvous already gave every rank its
		// neighbors' index maps, so a listing that is not reciprocated
		// shows as a missing outbound arc and yields a precise panic
		// naming the pair. The check is charged as the adjacency
		// allgather it stands for.
		_, _, tmax, last := c.enterColl(nil)
		c.exitColl(tmax, last, int64(8*len(neighbors)))
		for i, nb := range neighbors {
			if t.out[i] == nil {
				panic(fmt.Sprintf("mpi: CreateGraphTopo: asymmetric topology: rank %d lists %d but not vice versa", c.rank, nb))
			}
		}
	} else {
		// Large worlds: the modeled allgather would materialize every
		// adjacency list on every rank — O(P * E_p) memory, which at 16K+
		// ranks dwarfs the topology itself. Verify symmetry pairwise
		// instead: each rank posts a zero-cost handshake on every arc to
		// a neighbor that lists it and then takes one from every inbound
		// arc. Total traffic is O(E_p). An asymmetric listing means some
		// handshake never arrives; that surfaces as a deadline-watchdog
		// deadlock naming the blocked ranks rather than a pinpointed
		// panic — the price of scalability.
		one := [1]int64{int64(c.rank)}
		for i := range t.neighbors {
			if t.out[i] != nil {
				t.post(i, handshakeSeq, one[:], 0, 0)
			}
		}
		for i := range t.neighbors {
			t.spare = t.recvArc(i, handshakeSeq, t.spare)
		}
	}
	return t
}

// Neighbors returns the topology's neighbor list for this rank (a copy).
func (t *Topo) Neighbors() []int { return append([]int(nil), t.neighbors...) }

// Degree returns the number of neighbors of this rank.
func (t *Topo) Degree() int { return len(t.neighbors) }

// NeighborIndex returns the buffer position of neighbor rank nb, or -1.
func (t *Topo) NeighborIndex(nb int) int {
	if i, ok := t.index[nb]; ok {
		return i
	}
	return -1
}

// topoVerifyDenseLimit is the world size up to which CreateGraphTopo
// models symmetry verification as a full adjacency allgather (precise
// diagnostics, O(P*E_p) memory on a real machine). Larger worlds use the
// pairwise handshake. A variable so tests can exercise the handshake
// path at small sizes.
var topoVerifyDenseLimit = 2048

// post stamps one chunk of call seq for neighbor i — injected at the
// current clock, arriving after latency alpha+beta·bytes as perturbed
// by this rank's stream — and publishes it on the neighbor's inbound
// arc from this rank.
func (t *Topo) post(i int, seq int64, data []int64, alpha, beta float64) {
	c := t.c
	sent := c.ps.now
	arrive := sent + c.perturbLatency(alpha+beta*float64(8*len(data)))
	c.w.mailboxes[c.worldRank(t.neighbors[i])].pushArc(t.out[i], seq, arrive, sent, data)
}

// sendChunk charges and posts neighbor i's chunk of call seq, booking it
// in the traffic ledger, and returns its size in bytes.
func (t *Topo) sendChunk(i int, seq int64, part []int64) int64 {
	c := t.c
	cost := c.w.cost
	bytes := int64(8 * len(part))
	c.chargeComm(cost.AlphaNbr + cost.BetaNbr*float64(bytes))
	c.ps.rs.noteNbrChunk(c.worldRank(t.neighbors[i]), bytes)
	t.post(i, seq, part, cost.AlphaNbr, cost.BetaNbr)
	return bytes
}

// sendAll posts call seq's chunks, send[i] to neighbor i, in neighbor
// order and returns the bytes moved.
func (t *Topo) sendAll(seq int64, send [][]int64) int64 {
	var moved int64
	for i := range t.neighbors {
		moved += t.sendChunk(i, seq, send[i])
	}
	return moved
}

// recvArc blocks until inbound arc i holds the chunk of call seq, takes
// it and advances the clock to its arrival, booking any stall as a
// neighborhood-exchange wait on the sending neighbor. It returns the
// chunk's buffer; spare's storage stays on the arc for later chunks.
func (t *Topo) recvArc(i int, seq int64, spare []int64) []int64 {
	c := t.c
	mb := c.mbox()
	q := &t.in[i]
	mb.mu.Lock()
	k := q.find(seq)
	for k < 0 {
		if mb.poisoned {
			mb.mu.Unlock()
			panic("mpi: neighborhood exchange aborted: a peer rank failed")
		}
		mb.parkLocked(c.ps.task)
		k = q.find(seq)
	}
	e := q.take(k, spare)
	mb.queued -= int64(8 * len(e.data))
	mb.mu.Unlock()
	c.waitFor(e.arrive, WaitNbrExchange, c.worldRank(t.neighbors[i]), e.sent)
	return e.data
}

// recvAll receives call seq's chunks in neighbor order, recv[i] from
// neighbor i, and returns the bytes received. The storage each recv[i]
// held passes to its arc.
func (t *Topo) recvAll(seq int64, recv [][]int64) int64 {
	var got int64
	for i := range t.neighbors {
		recv[i] = t.recvArc(i, seq, recv[i])
		got += int64(8 * len(recv[i]))
	}
	return got
}

// NeighborAlltoallInt64 is MPI_Neighbor_alltoall: each rank sends a
// fixed-size chunk to every neighbor and receives one from each. send
// must hold Degree()*chunk words, laid out in neighbor order; the result
// has the same layout with received chunks. A rank with zero neighbors
// returns immediately — neighborhood collectives synchronize only within
// the neighborhood, never globally.
func (t *Topo) NeighborAlltoallInt64(send []int64, chunk int) []int64 {
	return t.NeighborAlltoallInt64Into(send, chunk, nil)
}

// NeighborAlltoallInt64Into is NeighborAlltoallInt64 receiving into a
// caller-supplied buffer of Degree()*chunk words (allocated when nil),
// which it returns. Transports reuse one buffer across rounds to keep the
// per-round count exchange allocation-free.
func (t *Topo) NeighborAlltoallInt64Into(send []int64, chunk int, recv []int64) []int64 {
	if len(send) != len(t.neighbors)*chunk {
		panic(fmt.Sprintf("mpi: NeighborAlltoallInt64: len(send)=%d, want %d*%d", len(send), len(t.neighbors), chunk))
	}
	if recv == nil {
		recv = make([]int64, len(t.neighbors)*chunk)
	} else if len(recv) != len(t.neighbors)*chunk {
		panic(fmt.Sprintf("mpi: NeighborAlltoallInt64Into: len(recv)=%d, want %d*%d", len(recv), len(t.neighbors), chunk))
	}
	c := t.c
	seq := t.seq
	t.seq++
	start := c.ps.now
	c.ps.rs.NbrCollCount++
	c.chargeComm(c.w.cost.AlphaNbrCall)
	var moved int64
	for i := range t.neighbors {
		moved += t.sendChunk(i, seq, send[i*chunk:(i+1)*chunk])
	}
	for i, nb := range t.neighbors {
		b := t.recvArc(i, seq, t.spare)
		t.spare = b
		if len(b) != chunk {
			panic(fmt.Sprintf("mpi: NeighborAlltoallInt64: rank %d received %d words from %d, want chunk %d", c.rank, len(b), nb, chunk))
		}
		copy(recv[i*chunk:(i+1)*chunk], b)
	}
	c.event(EvNbrColl, -1, int(seq), moved, start)
	return recv
}

// NeighborAlltoallvInt64 is MPI_Neighbor_alltoallv: send[i] is delivered
// to neighbor i; the result's element i is what neighbor i sent to this
// rank. Callers typically learn incoming sizes beforehand with a
// NeighborAlltoallInt64 count exchange, as the paper's NCL implementation
// does; this API nevertheless sizes receive buffers from the actual
// messages and the caller may cross-check.
func (t *Topo) NeighborAlltoallvInt64(send [][]int64) [][]int64 {
	return t.NeighborAlltoallvInt64Into(send, nil)
}

// NeighborAlltoallvInt64Into is NeighborAlltoallvInt64 receiving into a
// caller-supplied slice of per-neighbor buffers (allocated when nil).
// Each recv[i] is replaced by the chunk from neighbor i, and the storage
// it held passes to the runtime, which copies later chunks into it; the
// caller must not keep references into the old recv[i]. Transports
// keep one receive set across rounds, so capacity circulates and a
// steady-state exchange allocates nothing.
func (t *Topo) NeighborAlltoallvInt64Into(send, recv [][]int64) [][]int64 {
	if len(send) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: NeighborAlltoallvInt64: len(send)=%d, want degree %d", len(send), len(t.neighbors)))
	}
	if recv == nil {
		recv = make([][]int64, len(t.neighbors))
	} else if len(recv) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: NeighborAlltoallvInt64Into: len(recv)=%d, want degree %d", len(recv), len(t.neighbors)))
	}
	c := t.c
	seq := t.seq
	t.seq++
	start := c.ps.now
	c.ps.rs.NbrCollCount++
	c.chargeComm(c.w.cost.AlphaNbrCall)
	moved := t.sendAll(seq, send)
	t.recvAll(seq, recv)
	c.event(EvNbrColl, -1, int(seq), moved, start)
	return recv
}

// NeighborAllgatherInt64 is MPI_Neighbor_allgather: every rank sends the
// same vector to all neighbors; the result's element i is neighbor i's
// vector.
func (t *Topo) NeighborAllgatherInt64(mine []int64) [][]int64 {
	send := make([][]int64, len(t.neighbors))
	for i := range send {
		send[i] = mine
	}
	return t.NeighborAlltoallvInt64(send)
}

// TopoStats summarizes a process graph: number of undirected edges, and
// degree distribution statistics, as reported in the paper's Tables III,
// IV and VI.
type TopoStats struct {
	Procs    int
	Edges    int64 // |Ep|: undirected process-graph edges
	DegMin   int
	DegMax   int     // dmax
	DegAvg   float64 // davg
	DegSigma float64 // sigma_d
}

// GatherTopoStats collectively computes process-graph statistics for the
// topology. Every member receives the result.
func (t *Topo) GatherTopoStats() TopoStats {
	c := t.c
	deg := int64(len(t.neighbors))
	sums := c.AllreduceInt64(OpSum, []int64{deg, deg * deg})
	maxs := c.AllreduceInt64(OpMax, []int64{deg})
	mins := c.AllreduceInt64(OpMin, []int64{deg})
	n := float64(c.size())
	avg := float64(sums[0]) / n
	variance := float64(sums[1])/n - avg*avg
	if variance < 0 {
		variance = 0
	}
	return TopoStats{
		Procs:    c.size(),
		Edges:    sums[0] / 2,
		DegMin:   int(mins[0]),
		DegMax:   int(maxs[0]),
		DegAvg:   avg,
		DegSigma: math.Sqrt(variance),
	}
}

// SortedNeighbors returns the neighbor list in ascending rank order
// (convenience for deterministic iteration in diagnostics).
func (t *Topo) SortedNeighbors() []int {
	out := append([]int(nil), t.neighbors...)
	sort.Ints(out)
	return out
}
