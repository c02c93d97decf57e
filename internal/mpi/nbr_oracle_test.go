package mpi

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// Differential test of neighborhood-collective delivery against a
// deliberately plain reference. nbrRef delivers directly: every chunk a
// rank posts is filed in a map under (topology, call, source,
// destination), and a receive takes exactly that entry out again. No
// slot, FIFO, buffer hand-over or sequence matching is involved.
//
// FuzzNbrDifferential runs random programs of blocking, nonblocking and
// persistent calls over random symmetric topologies through the real
// runtime, files every payload it posts with the reference, and requires
// each receive to deliver the reference's payload for that call, every
// arc to deliver the calls in the reference's order, and nothing to be
// left undelivered.

type nbrKey struct {
	topo, seq int64
	src, dst  int
}

type nbrArc struct {
	topo     int64
	src, dst int
}

type nbrRef struct {
	mu     sync.Mutex
	chunks map[nbrKey][]int64
	// order lists, per arc, the calls of the non-empty chunks the
	// reference delivered; seen lists the calls decoded from the
	// payloads the runtime delivered at the same receives.
	order, seen map[nbrArc][]int64
}

func newNbrRef() *nbrRef {
	return &nbrRef{chunks: map[nbrKey][]int64{}, order: map[nbrArc][]int64{}, seen: map[nbrArc][]int64{}}
}

// post files a copy of the chunk src sends dst on call seq of topo.
func (r *nbrRef) post(k nbrKey, data []int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.chunks[k]; dup {
		return fmt.Errorf("reference: chunk %+v posted twice", k)
	}
	r.chunks[k] = slices.Clone(data)
	return nil
}

// deliver removes and returns the chunk filed under k, and notes the
// call the runtime's payload got for the same receive came from.
func (r *nbrRef) deliver(k nbrKey, got []int64) ([]int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.chunks[k]
	if !ok {
		return nil, false
	}
	delete(r.chunks, k)
	a := nbrArc{k.topo, k.src, k.dst}
	if len(data) > 0 {
		r.order[a] = append(r.order[a], k.seq)
	}
	if len(got) > 0 {
		r.seen[a] = append(r.seen[a], got[0]>>32&0xffff)
	}
	return data, true
}

// checkOrder requires every arc to have delivered its calls in the
// reference's order.
func (r *nbrRef) checkOrder() error {
	for a, want := range r.order {
		if got := r.seen[a]; !slices.Equal(got, want) {
			return fmt.Errorf("arc %+v delivered calls %v, reference %v", a, got, want)
		}
	}
	for a, got := range r.seen {
		if _, ok := r.order[a]; !ok {
			return fmt.Errorf("arc %+v delivered calls %v, reference none", a, got)
		}
	}
	return nil
}

// nbrOp is one collective step of a program; every rank runs the same
// sequence.
type nbrOp struct {
	kind byte // see nbrProgram
	topo int  // which of the two topologies
	arg  byte
}

// nbrProgram is a decoded fuzz input: a world size, two random symmetric
// topologies with shuffled neighbor orders, a perturbation setting and
// a sequence of operations. Operation kinds:
//
//	0 blocking NeighborAlltoallInt64Into, chunk arg%6 words
//	1 blocking NeighborAlltoallvInt64Into
//	2 INeighborAlltoallvInt64 (at most four outstanding per topology)
//	3 complete outstanding request arg%len by Wait, or by Test polling
//	4 PersistentNbr.Start, or WaitInto when a round is in flight
type nbrProgram struct {
	n    int
	adj  [2][][]int
	prof int // index into perturbProfiles
	seed uint64
	ops  []nbrOp
}

func decodeNbrProgram(data []byte) nbrProgram {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	var p nbrProgram
	p.n = 2 + int(next()%7)
	p.prof = int(next()) % len(perturbProfiles)
	p.seed = uint64(next())<<8 | uint64(next())
	rnd := rand.New(rand.NewSource(int64(p.seed)))
	for k := range p.adj {
		adj := make([][]int, p.n)
		for a := 0; a < p.n; a++ {
			for b := a + 1; b < p.n; b++ {
				if rnd.Intn(3) > 0 {
					adj[a] = append(adj[a], b)
					adj[b] = append(adj[b], a)
				}
			}
		}
		for _, l := range adj {
			rnd.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		}
		p.adj[k] = adj
	}
	for pos < len(data) && len(p.ops) < 64 {
		b := next()
		p.ops = append(p.ops, nbrOp{kind: b % 5, topo: int(b>>3) & 1, arg: next()})
	}
	return p
}

// nbrWords is the payload rank src sends dst on call seq of a program:
// 0-40 words (so some chunks cross inlineWords), each encoding where it
// came from. Fixed-chunk calls pass the chunk size as words.
func nbrWords(topo, seq int64, src, dst, words int) []int64 {
	if words < 0 {
		words = int(uint64(seq*31+int64(src*7+dst*13)+topo*5) % 41)
	}
	out := make([]int64, words)
	for i := range out {
		out[i] = topo<<48 | seq<<32 | int64(src)<<24 | int64(dst)<<16 | int64(i)
	}
	return out
}

// nbrRankState is one rank's view of one topology during a program.
type nbrRankState struct {
	t        *Topo
	id       int64
	seq      int64 // mirrors the runtime's per-topology call sequence
	nbrs     []int
	reqs     []*NbrRequest
	reqSeqs  []int64
	pn       *PersistentNbr
	pnSeq    int64
	inflight bool
	recv     [][]int64 // reused across calls, exercising the buffer hand-over
	flat     []int64
}

// runNbrProgram executes p through the real runtime, checking every
// delivery against ref.
func runNbrProgram(p nbrProgram, ref *nbrRef) error {
	body := func(c *Comm) error {
		r := c.Rank()
		var st [2]nbrRankState
		for k := range st {
			s := &st[k]
			s.t = c.CreateGraphTopo(p.adj[k][r])
			s.id, s.nbrs = int64(k), p.adj[k][r]
			s.pn = s.t.NeighborAlltoallvInit()
		}
		sendv := func(s *nbrRankState, seq int64) ([][]int64, error) {
			out := make([][]int64, len(s.nbrs))
			for i, nb := range s.nbrs {
				out[i] = nbrWords(s.id, seq, r, nb, -1)
				if err := ref.post(nbrKey{s.id, seq, r, nb}, out[i]); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		check := func(s *nbrRankState, seq int64, got [][]int64) error {
			for i, nb := range s.nbrs {
				want, ok := ref.deliver(nbrKey{s.id, seq, nb, r}, got[i])
				if !ok {
					return fmt.Errorf("rank %d topo %d call %d: chunk from %d delivered twice or never posted", r, s.id, seq, nb)
				}
				if !slices.Equal(got[i], want) {
					return fmt.Errorf("rank %d topo %d call %d from %d: got %v, reference %v", r, s.id, seq, nb, got[i], want)
				}
			}
			return nil
		}
		complete := func(s *nbrRankState, j int, poll bool) error {
			req, seq := s.reqs[j], s.reqSeqs[j]
			s.reqs = slices.Delete(s.reqs, j, j+1)
			s.reqSeqs = slices.Delete(s.reqSeqs, j, j+1)
			var got [][]int64
			if poll {
				for ok := false; !ok; got, ok = req.Test() {
				}
			} else {
				got = req.Wait()
			}
			return check(s, seq, got)
		}
		for _, op := range p.ops {
			s := &st[op.topo]
			switch op.kind {
			case 0:
				chunk := int(op.arg % 6)
				send := make([]int64, 0, chunk*len(s.nbrs))
				for _, nb := range s.nbrs {
					part := nbrWords(s.id, s.seq, r, nb, chunk)
					if err := ref.post(nbrKey{s.id, s.seq, r, nb}, part); err != nil {
						return err
					}
					send = append(send, part...)
				}
				if len(s.flat) != len(send) {
					s.flat = make([]int64, len(send))
				}
				s.flat = s.t.NeighborAlltoallInt64Into(send, chunk, s.flat)
				got := make([][]int64, len(s.nbrs))
				for i := range got {
					got[i] = s.flat[i*chunk : (i+1)*chunk]
				}
				if err := check(s, s.seq, got); err != nil {
					return err
				}
				s.seq++
			case 1:
				send, err := sendv(s, s.seq)
				if err != nil {
					return err
				}
				if s.recv == nil {
					s.recv = make([][]int64, len(s.nbrs))
				}
				s.recv = s.t.NeighborAlltoallvInt64Into(send, s.recv)
				if err := check(s, s.seq, s.recv); err != nil {
					return err
				}
				s.seq++
			case 2:
				if len(s.reqs) == 4 {
					continue
				}
				send, err := sendv(s, s.seq)
				if err != nil {
					return err
				}
				s.reqs = append(s.reqs, s.t.INeighborAlltoallvInt64(send))
				s.reqSeqs = append(s.reqSeqs, s.seq)
				s.seq++
			case 3:
				if len(s.reqs) == 0 {
					continue
				}
				if err := complete(s, int(op.arg)%len(s.reqs), op.arg&0x80 != 0); err != nil {
					return err
				}
			case 4:
				if s.inflight {
					s.inflight = false
					s.recv = s.pn.WaitInto(s.recv)
					if err := check(s, s.pnSeq, s.recv); err != nil {
						return err
					}
					continue
				}
				send, err := sendv(s, s.seq)
				if err != nil {
					return err
				}
				s.pn.Start(send)
				s.pnSeq, s.inflight = s.seq, true
				s.seq++
			}
		}
		for k := range st {
			s := &st[k]
			for len(s.reqs) > 0 {
				if err := complete(s, 0, false); err != nil {
					return err
				}
			}
			if s.inflight {
				if err := check(s, s.pnSeq, s.pn.Wait()); err != nil {
					return err
				}
			}
		}
		return nil
	}
	opts := []Option{WithDeadline(30 * time.Second)}
	if prof := perturbProfiles[p.prof]; prof.Enabled() {
		opts = append(opts, WithPerturb(p.seed, prof))
	}
	if _, err := Run(p.n, body, opts...); err != nil {
		return err
	}
	if len(ref.chunks) != 0 {
		return fmt.Errorf("%d posted chunks never delivered", len(ref.chunks))
	}
	return ref.checkOrder()
}

// FuzzNbrDifferential compares neighborhood-collective delivery with
// nbrRef on arbitrary programs. Run it with
//
//	go test -run xxx -fuzz FuzzNbrDifferential ./internal/mpi/
//
// The seed corpus below runs under plain go test.
func FuzzNbrDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 0, 1, 1, 0, 2, 0, 2, 0, 0, 3, 3, 0, 4, 0, 4, 0, 3, 0x80})
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		prog := make([]byte, 96)
		rnd.Read(prog)
		prog[1] = byte(i) // every perturbation profile, twice
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeNbrProgram(data)
		ref := newNbrRef()
		if err := runNbrProgram(p, ref); err != nil {
			t.Fatalf("n=%d profile %v seed %d: %v", p.n, perturbProfiles[p.prof], p.seed, err)
		}
	})
}
