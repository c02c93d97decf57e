package mpi

import "fmt"

// NbrRequest is an in-flight nonblocking neighborhood collective started
// with INeighborAlltoallvInt64 (the analogue of MPI_Ineighbor_alltoallv
// from MPI-3's nonblocking collectives). The caller may compute while the
// exchange progresses and must eventually call Wait (or poll Test until
// completion) exactly once.
//
// Real MPI requires receive counts when the operation is posted; the
// runtime sizes receives from the arriving messages instead, which models
// an implementation with preposted maximum-size buffers — valid whenever
// the application can bound per-neighbor volume, as the matching protocol
// can (MaxMessagesPerCrossEdge).
type NbrRequest struct {
	t        *Topo
	seq      int64
	finished bool
}

// INeighborAlltoallvInt64 starts a nonblocking neighborhood all-to-all:
// send[i] is delivered to neighbor i. The injection cost is charged at
// start; transit overlaps with whatever the caller does before Wait.
func (t *Topo) INeighborAlltoallvInt64(send [][]int64) *NbrRequest {
	if len(send) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: INeighborAlltoallvInt64: len(send)=%d, want degree %d", len(send), len(t.neighbors)))
	}
	c := t.c
	seq := t.seq
	t.seq++
	start := c.ps.now
	c.ps.rs.NbrCollCount++
	c.chargeComm(c.w.cost.AlphaNbrCall)
	sent := t.sendAll(seq, send)
	c.event(EvNbrStart, -1, int(seq), sent, start)
	return &NbrRequest{t: t, seq: seq}
}

// Wait blocks until every neighbor's contribution has arrived and
// returns them in neighbor order. The caller's clock advances only to
// the latest arrival — time spent computing since the start overlaps the
// transfer, which is the point of the nonblocking form.
func (r *NbrRequest) Wait() [][]int64 {
	return r.WaitInto(nil)
}

// WaitInto is Wait receiving into a caller-supplied slice of per-neighbor
// buffers (allocated when nil), with the buffer hand-over of
// NeighborAlltoallvInt64Into: each recv[i] is replaced by neighbor i's
// chunk and its old storage passes to the runtime. The pipelined
// transport keeps one receive set across rounds so steady-state
// completion allocates nothing.
func (r *NbrRequest) WaitInto(recv [][]int64) [][]int64 {
	if r.finished {
		panic("mpi: NbrRequest.Wait called twice")
	}
	r.finished = true
	c := r.t.c
	if recv == nil {
		recv = make([][]int64, len(r.t.neighbors))
	} else if len(recv) != len(r.t.neighbors) {
		panic(fmt.Sprintf("mpi: NbrRequest.WaitInto: len(recv)=%d, want degree %d", len(recv), len(r.t.neighbors)))
	}
	start := c.ps.now
	got := r.t.recvAll(r.seq, recv)
	c.event(EvNbrWait, -1, int(r.seq), got, start)
	return recv
}

// Test reports whether the exchange has completed without blocking; when
// it has, the received contributions are returned and the request is
// finished (as MPI_Test frees the request). A small probe cost is
// charged per poll.
func (r *NbrRequest) Test() ([][]int64, bool) {
	if r.finished {
		panic("mpi: NbrRequest.Test called after completion")
	}
	c := r.t.c
	start := c.ps.now
	c.chargeComm(c.w.cost.ProbeOverhead)
	// Like Iprobe, a nonblocking completion test may legally miss even
	// when everything has arrived; bounded, so Test/Wait loops progress.
	if pt := c.ps.pert; pt != nil && pt.ForceMiss() {
		c.event(EvProbe, -1, int(r.seq), 0, start)
		c.pollMiss()
		return nil, false
	}
	mb := c.mbox()
	mb.mu.Lock()
	for i := range r.t.in {
		if r.t.in[i].find(r.seq) < 0 {
			mb.mu.Unlock()
			c.event(EvProbe, -1, int(r.seq), 0, start)
			c.pollMiss()
			return nil, false
		}
	}
	mb.mu.Unlock()
	c.ps.pollMisses = 0
	return r.Wait(), true
}
