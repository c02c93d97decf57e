package mpi

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// This file implements the runtime's receive-side message store. Every
// rank owns one mailbox; senders push under the mailbox lock and the
// owning rank matches, probes and dequeues. The mailbox holds
// point-to-point traffic only. Neighborhood-collective chunks travel on
// per-arc slots owned by the receiving rank's Topo (see arcq in
// topo.go); they are published under the same lock, so parking, poison
// teardown and the queued-bytes high-water mark cover both kinds.
//
// The store is organized the way real MPI implementations index their
// posted-receive and unexpected-message queues (cf. MPICH's queue-search
// optimizations): messages are bucketed by source, and each bucket keeps
// small FIFO indexes so the common lookups are O(1) instead of a linear
// scan over everything queued:
//
//   - per (source, communicator) FIFO, in send order — resolves
//     (src, AnyTag) and feeds the AnySource front heaps;
//   - per (source, communicator, tag) FIFO — resolves exact (src, tag).
//
// A message is indexed by both the arrival FIFO and its tag
// FIFO. Dequeuing through one index bumps the message's generation; the
// other index skips dead entries lazily when it next reaches them, so
// removal is O(1) amortized with no shift-deletes. Because message
// structs are pooled, a stale index entry can outlive its message's
// recycling — and the recycled struct may by then live in a different
// mailbox, under a different lock. Every entry therefore records the
// generation at push time and compares it with one atomic load: take and
// release each bump the counter, so equality proves the entry still
// refers to the live, untaken incarnation owned by this mailbox.
//
// Each (source, communicator) arrival FIFO is in send order, which is
// MPI's non-overtaking guarantee made structural: a receive only ever
// takes a FIFO front. Arrival stamps within one FIFO are monotone unless
// latency jitter is perturbing the run, so the front is usually but not
// always the FIFO's earliest arrival. AnySource wildcards take the
// minimum (arrive, src) front across sources, which preserves the
// earliest-virtual-arrival selection the timing model depends on (see
// the comment on matchUserLocked). Each communicator keeps a min-heap
// of the live fronts of its arrival FIFOs, so an AnySource/AnyTag probe
// reads the heap root in O(1) and a dequeue re-keys one entry in
// O(log sources). AnySource with an exact tag, and the perturbed tie
// path, scan only that communicator's heap entries.
//
// The per-bucket indexes are small slices of inline rings, not maps: a
// rank hears from a handful of sources on a handful of (comm, tag)
// keys, so a linear scan over an index of a few entries beats three Go
// maps' hashing and — more important at scale — their per-bucket heap
// footprint. Keys are never removed (rings are retained and reused), so
// a bucket whose tag-key cardinality ever exceeds bucketScanLimit
// installs a position map once and keeps O(1) lookups; below the limit
// the map never exists.
//
// Buckets are stored as a dense pointer table (indexed by source, slots
// nil until first traffic) for worlds of up to denseSrcLimit ranks and
// in a lazily populated map above that: a graph-topology rank hears
// from its process-graph neighbors, not from all P peers, so eager
// per-source bucket structs would cost O(P) per mailbox = O(P^2) per
// world. Either way buckets are allocated in chunks on first traffic,
// and wildcard matching goes through the front heaps, never the table.
// Chunk storage is pointer-stable: index entries and heap entries hold
// *srcBucket safely across appends.
//
// Messages themselves are pooled: see message.release. Payloads of up to
// inlineWords words (covering the 3-word protocol records that dominate
// matching traffic) live inline in the struct; larger payloads use a
// spill buffer that is recycled with the struct.

// inlineWords is the payload capacity stored directly inside a pooled
// message struct. Four words cover the {ctx, x, y} protocol records and
// the one-word control messages that dominate the runtime's traffic.
const inlineWords = 4

// denseSrcLimit is the world size up to which a mailbox keeps its
// source-bucket pointers in a dense table. Above it buckets are found
// through a map, bounding mailbox memory by the rank's in-degree
// instead of the world size.
const denseSrcLimit = 1024

// bucketScanLimit is the per-bucket tag-key cardinality above which a
// bucket installs a position map over its tag index. Matching protocols
// use a handful of tags, so the map is for pathological workloads only.
const bucketScanLimit = 16

// bucketChunk is how many srcBucket structs are allocated at once when
// a mailbox needs a new bucket. Graph topologies have small in-degrees
// (2 for a ring, a few dozen for meshes and halos), so the chunk is kept
// tiny: a stranded unused struct costs as much as the allocation it
// saves.
const bucketChunk = 2

// qRetainEnts caps the ring capacity a retired or reset queue keeps for
// reuse. Rings grow by doubling during backlog spikes (a 1K-message
// burst grows one ring to 16 KiB); without the cap a pooled world pins
// every spike's high-water ring forever.
const qRetainEnts = 64

// spillRetainWords caps the spill-buffer capacity a pooled message
// keeps, for the same reason: one huge payload must not pin an 8 KiB+
// buffer in the process-wide pool for the rest of its life.
const spillRetainWords = 1024

// message is an in-flight point-to-point payload.
type message struct {
	src  int // sender's rank within the sending communicator
	tag  int
	mctx int32 // communicator id
	// gen is bumped on take and on release. Index entries snapshot it at
	// push time; a mismatch means the entry is dead (taken through the
	// other index, or recycled entirely). Atomic because a stale entry
	// may be examined under one mailbox's lock while the recycled
	// struct's current owner bumps it under another's.
	gen    atomic.Uint64
	data   []int64
	bytes  int64
	arrive float64 // virtual arrival time at the receiver
	// sent is the sender's virtual clock at injection (arrive minus the
	// in-flight latency). Classified waits record it as the cause
	// timestamp, linking the receiver's blocked interval back to the
	// point on the sender's timeline that bounds it.
	sent   float64
	inline [inlineWords]int64
	spill  []int64 // reusable storage for payloads > inlineWords
}

// msgPool recycles message structs (with their spill buffers) across the
// whole process. Senders allocate from it in newMessage; receivers return
// structs via release once the payload has been copied out.
var msgPool = sync.Pool{New: func() any { return new(message) }}

// newMessage obtains a pooled message and copies data into it. The caller
// may reuse data immediately (MPI eager-buffering semantics).
func newMessage(src, tag int, mctx int32, data []int64) *message {
	m := msgPool.Get().(*message)
	m.src, m.tag, m.mctx = src, tag, mctx
	n := len(data)
	if n <= inlineWords {
		m.data = m.inline[:n:inlineWords]
	} else {
		if cap(m.spill) < n {
			m.spill = make([]int64, n)
		}
		m.data = m.spill[:n]
	}
	copy(m.data, data)
	m.bytes = int64(8 * n)
	return m
}

// release returns a message to the pool. The caller must have copied out
// everything it needs: after release, m.data may be overwritten by an
// unrelated send at any time. Bumping gen invalidates any index entry
// still pointing at the struct (lazy deletion leaves those behind).
func (m *message) release() {
	m.gen.Add(1)
	m.data = nil
	if cap(m.spill) > spillRetainWords {
		m.spill = nil
	}
	msgPool.Put(m)
}

// qent is one ring slot: the message plus its generation at push time. A
// mismatch against the struct's current generation means the message was
// dequeued through the other index (or already recycled) — the slot is
// dead even though the reused struct may look live again.
type qent struct {
	m   *message
	gen uint64
}

// msgq is a FIFO ring of messages. Capacity grows by doubling and is
// retained for reuse (capped at qRetainEnts on retirement/reset), so
// steady-state operation does not allocate. front and pop skip entries
// already taken through another index.
type msgq struct {
	buf  []qent
	head int // index of the front element (valid when n > 0)
	n    int // live slots, including taken entries not yet skipped
}

func (q *msgq) push(m *message) {
	if q.n == len(q.buf) {
		grown := make([]qent, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = qent{m, m.gen.Load()}
	q.n++
}

// front returns the earliest live message, discarding taken and recycled
// entries.
func (q *msgq) front() *message {
	for q.n > 0 {
		e := q.buf[q.head]
		if e.m.gen.Load() == e.gen {
			return e.m
		}
		q.buf[q.head] = qent{}
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
	}
	return nil
}

// popFront removes the message returned by front. Callers must have just
// called front (so the head entry is live).
func (q *msgq) popFront() {
	q.buf[q.head] = qent{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// trim drops an oversized ring so a pooled world sheds backlog spikes.
// Only legal when the ring is logically empty (front/pop zero slots as
// they retire entries, so an n==0 ring holds no message pointers).
func (q *msgq) trim() {
	if q.n == 0 && cap(q.buf) > qRetainEnts {
		q.buf, q.head = nil, 0
	}
}

// tagKey identifies a user-level (communicator, tag) FIFO within a
// bucket; used only by the overflow position map.
type tagKey struct {
	mctx int32
	tag  int
}

// userq is one per-communicator arrival FIFO: every user-level message
// from this bucket's source in communicator mctx, in send order. While
// the FIFO holds a live message its ring head is that message (take
// re-reads front whenever the front dies), hpos places it in the
// communicator's front heap and heap names that heap; an empty FIFO has
// n == 0 and hpos == -1.
type userq struct {
	mctx int32
	hpos int32 // position in the mctx front heap, or -1
	heap int32 // index of the mctx front heap in mailbox.fronts (valid while hpos >= 0)
	q    msgq
}

// tagq is one (communicator, tag) FIFO.
type tagq struct {
	mctx int32
	tag  int
	q    msgq
}

// srcBucket holds everything queued from one source rank. For a fixed
// communicator a source rank maps to exactly one sending goroutine, so
// each FIFO below has a single producer with a monotone clock. Index
// entries hold their rings by value; pointers into the slices are only
// ever used within one locked mailbox call, never across appends.
type srcBucket struct {
	user   []userq // per-communicator arrival FIFOs
	tags   []tagq  // per (communicator, tag) FIFOs; keys never removed
	tagIdx map[tagKey]int
	src    int32 // source rank this bucket indexes
}

// userIndex returns the position of the arrival FIFO for mctx in b.user,
// or -1. Positions are stable: FIFOs are never removed.
func (b *srcBucket) userIndex(mctx int32) int {
	for i := range b.user {
		if b.user[i].mctx == mctx {
			return i
		}
	}
	return -1
}

// userqFor returns the position of the arrival FIFO for mctx, creating
// the FIFO if needed.
func (b *srcBucket) userqFor(mctx int32) int {
	if i := b.userIndex(mctx); i >= 0 {
		return i
	}
	b.user = append(b.user, userq{mctx: mctx, hpos: -1})
	return len(b.user) - 1
}

// tagqFor returns the (mctx, tag) FIFO, creating it if needed. When the
// key cardinality outgrows a linear scan the bucket installs a position
// map once; entries are never removed, so positions stay valid.
func (b *srcBucket) tagqFor(mctx int32, tag int) *msgq {
	if b.tagIdx != nil {
		if i, ok := b.tagIdx[tagKey{mctx, tag}]; ok {
			return &b.tags[i].q
		}
	} else {
		for i := range b.tags {
			if b.tags[i].tag == tag && b.tags[i].mctx == mctx {
				return &b.tags[i].q
			}
		}
	}
	b.tags = append(b.tags, tagq{mctx: mctx, tag: tag})
	i := len(b.tags) - 1
	if b.tagIdx != nil {
		b.tagIdx[tagKey{mctx, tag}] = i
	} else if len(b.tags) > bucketScanLimit {
		b.tagIdx = make(map[tagKey]int, 2*len(b.tags))
		for j := range b.tags {
			b.tagIdx[tagKey{b.tags[j].mctx, b.tags[j].tag}] = j
		}
	}
	return &b.tags[i].q
}

// tagPeek returns the (mctx, tag) FIFO, or nil.
func (b *srcBucket) tagPeek(mctx int32, tag int) *msgq {
	if b.tagIdx != nil {
		if i, ok := b.tagIdx[tagKey{mctx, tag}]; ok {
			return &b.tags[i].q
		}
		return nil
	}
	for i := range b.tags {
		if b.tags[i].tag == tag && b.tags[i].mctx == mctx {
			return &b.tags[i].q
		}
	}
	return nil
}

// frontEnt is one front-heap entry: the arrival FIFO b.user[ui], keyed
// by its live front m. arrive and src repeat m's so sifting compares
// without dereferencing the message.
type frontEnt struct {
	arrive float64
	src    int32
	ui     int32
	m      *message
	b      *srcBucket
}

// before orders fronts by (arrive, src): earliest virtual arrival first,
// ties toward the lower source rank.
func (e *frontEnt) before(f *frontEnt) bool {
	return e.arrive < f.arrive || (e.arrive == f.arrive && e.src < f.src)
}

// frontHeap is a binary min-heap over the arrival FIFOs of communicator
// mctx that hold a live message, one entry per source bucket. Every
// move writes the entry's position back into its userq.hpos.
type frontHeap struct {
	mctx int32
	h    []frontEnt
}

func (fh *frontHeap) set(i int, e frontEnt) {
	fh.h[i] = e
	e.b.user[e.ui].hpos = int32(i)
}

func (fh *frontHeap) push(e frontEnt) {
	fh.h = append(fh.h, e)
	fh.up(len(fh.h) - 1)
}

func (fh *frontHeap) up(i int) {
	e := fh.h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&fh.h[p]) {
			break
		}
		fh.set(i, fh.h[p])
		i = p
	}
	fh.set(i, e)
}

func (fh *frontHeap) down(i int) {
	e := fh.h[i]
	n := len(fh.h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && fh.h[r].before(&fh.h[c]) {
			c = r
		}
		if !fh.h[c].before(&e) {
			break
		}
		fh.set(i, fh.h[c])
		i = c
	}
	fh.set(i, e)
}

// fix restores heap order after h[i]'s key changed. Within one FIFO
// arrivals are not monotone under jitter, so the new front may be
// earlier or later than the old one: sift both ways.
func (fh *frontHeap) fix(i int) {
	if i > 0 && fh.h[i].before(&fh.h[(i-1)/2]) {
		fh.up(i)
	} else {
		fh.down(i)
	}
}

// remove deletes h[i] and marks its FIFO as out of the heap.
func (fh *frontHeap) remove(i int) {
	e := &fh.h[i]
	e.b.user[e.ui].hpos = -1
	last := len(fh.h) - 1
	if i != last {
		fh.set(i, fh.h[last])
	}
	fh.h[last] = frontEnt{}
	fh.h = fh.h[:last]
	if i != last {
		fh.fix(i)
	}
}

// mailbox is one rank's receive queue. Senders push under mu; the single
// owning rank matches and dequeues. The owner parks its task (not a
// condvar) when nothing matches; push unparks it, so a sender's wakeup
// is one CAS plus, in pooled mode, a shard-local enqueue.
type mailbox struct {
	mu       sync.Mutex
	owner    *task
	dense    []*srcBucket         // index by src; non-nil for small worlds, slots lazily filled
	sparse   map[int32]*srcBucket // lazily populated for large worlds
	used     []*srcBucket         // buckets created since the mailbox was built
	fronts   []frontHeap          // one front heap per communicator; never removed
	cand     []frontEnt           // scratch for perturbed wildcard selection
	bfree    []*srcBucket         // preallocated buckets (chunk remainder)
	arcs     [][]arcq             // inbound-arc sets, one per topology created; retained when pooled
	arcN     int                  // arc sets handed out this run
	nUser    int                  // live user-level messages across all buckets
	parked   bool                 // the owner's task is parked on this mailbox
	queued   int64                // bytes currently queued (eager-buffer occupancy)
	hw       int64                // high-water of queued
	poisoned bool
	// pert, when non-nil, permutes wildcard selection among concurrently
	// available FIFO fronts (sched Ties class). It is the owning
	// rank's stream: matchUserLocked runs only on the owner's goroutine,
	// so no additional synchronization is needed beyond mu.
	pert *sched.Rank
}

// newMailbox returns a mailbox accepting traffic from up to n sources
// (communicator ranks are always < the world size n).
func newMailbox(n int) *mailbox {
	mb := &mailbox{}
	mb.init(n, nil)
	return mb
}

// init prepares a zero mailbox for a world of n ranks. denseTab, when
// non-nil, is a caller-provided len-n pointer table (worldState carves
// all n tables out of one n*n backing array so a dense world costs one
// allocation instead of n). Large worlds start with no index at all:
// buckets are found by scanning the used list while the in-degree stays
// below bucketScanLimit, and the sparse map is built only on spill — so
// the common graph-topology mailbox (a handful of neighbor sources)
// never pays for a map.
func (mb *mailbox) init(n int, denseTab []*srcBucket) {
	if n <= denseSrcLimit {
		if denseTab == nil {
			denseTab = make([]*srcBucket, n)
		}
		mb.dense = denseTab
	}
}

// compatible reports whether a pooled mailbox can serve a world of n
// ranks: sparse mailboxes fit any n; dense ones need a big enough table.
func (mb *mailbox) compatible(n int) bool {
	return mb.dense == nil || len(mb.dense) >= n
}

// newBucket hands out a bucket from the chunk free-list, refilling it
// with a bucketChunk-sized allocation when empty. Chunk storage is never
// reallocated, so the returned pointer is stable for the mailbox's life.
func (mb *mailbox) newBucket(src int32) *srcBucket {
	if len(mb.bfree) == 0 {
		chunk := make([]srcBucket, bucketChunk)
		for i := range chunk {
			mb.bfree = append(mb.bfree, &chunk[i])
		}
	}
	n := len(mb.bfree) - 1
	b := mb.bfree[n]
	mb.bfree[n] = nil
	mb.bfree = mb.bfree[:n]
	b.src = src
	mb.used = append(mb.used, b)
	return b
}

// bucket returns (creating if needed) the bucket for source src. Caller
// holds mb.mu.
func (mb *mailbox) bucket(src int32) *srcBucket {
	if b := mb.peek(src); b != nil {
		return b
	}
	b := mb.newBucket(src)
	if mb.dense != nil {
		mb.dense[src] = b
	} else if mb.sparse != nil {
		mb.sparse[src] = b
	} else if len(mb.used) > bucketScanLimit {
		// In-degree outgrew the linear scan: install the map once.
		mb.sparse = make(map[int32]*srcBucket, 2*len(mb.used))
		for _, ub := range mb.used {
			mb.sparse[ub.src] = ub
		}
	}
	return b
}

// peek returns the bucket for src without creating one, or nil.
func (mb *mailbox) peek(src int32) *srcBucket {
	if mb.dense != nil {
		return mb.dense[src]
	}
	if mb.sparse != nil {
		return mb.sparse[src]
	}
	for _, b := range mb.used {
		if b.src == src {
			return b
		}
	}
	return nil
}

// push enqueues m, indexing it by source and tag, and unparks the owner
// if it is parked. On a poisoned mailbox push is a no-op (the run is
// already failing and the owner may have unwound), so queued/hw stay
// frozen at their poison-time snapshot for the memory reports.
func (mb *mailbox) push(m *message) {
	mb.mu.Lock()
	if mb.poisoned {
		mb.mu.Unlock()
		m.release()
		return
	}
	b := mb.bucket(int32(m.src))
	ui := b.userqFor(m.mctx)
	u := &b.user[ui]
	u.q.push(m)
	b.tagqFor(m.mctx, m.tag).push(m)
	mb.nUser++
	if u.hpos < 0 {
		// First live message: it is the FIFO's new front.
		u.heap = mb.frontsFor(m.mctx)
		mb.fronts[u.heap].push(frontEnt{arrive: m.arrive, src: b.src, ui: int32(ui), m: m, b: b})
	}
	mb.admitLocked(m.bytes)
}

// pushArc publishes one neighborhood-collective chunk on q, an inbound
// arc of this mailbox's rank, and unparks the owner if it is parked.
// Like push it is a no-op on a poisoned mailbox.
func (mb *mailbox) pushArc(q *arcq, seq int64, arrive, sent float64, data []int64) {
	mb.mu.Lock()
	if mb.poisoned {
		mb.mu.Unlock()
		return
	}
	q.push(seq, arrive, sent, data)
	mb.admitLocked(int64(8 * len(data)))
}

// admitLocked books bytes of newly queued traffic against the eager
// buffer, releases mb.mu and unparks the owner if it was parked.
func (mb *mailbox) admitLocked(bytes int64) {
	mb.queued += bytes
	if mb.queued > mb.hw {
		mb.hw = mb.queued
	}
	wake := mb.parked
	mb.parked = false
	owner := mb.owner
	mb.mu.Unlock()
	if wake {
		owner.unpark()
	}
}

// arcSet hands out the inbound-arc storage for this rank's next
// topology: n slots, reused from the previous run at the same position
// in creation order when large enough. Only the owning rank calls it.
func (mb *mailbox) arcSet(n int) []arcq {
	if mb.arcN == len(mb.arcs) {
		mb.arcs = append(mb.arcs, nil)
	}
	if cap(mb.arcs[mb.arcN]) < n {
		mb.arcs[mb.arcN] = make([]arcq, n)
	}
	s := mb.arcs[mb.arcN][:n]
	mb.arcN++
	return s
}

// parkLocked parks the owning task on the mailbox until the next push.
// The caller holds mb.mu with nothing matched; on return the lock is
// held again and the caller re-checks its predicate (wakeups may be
// spurious).
func (mb *mailbox) parkLocked(t *task) {
	mb.parked = true
	mb.mu.Unlock()
	t.park()
	mb.mu.Lock()
}

// frontsPeek returns the front heap of communicator mctx, or nil.
func (mb *mailbox) frontsPeek(mctx int32) *frontHeap {
	for i := range mb.fronts {
		if mb.fronts[i].mctx == mctx {
			return &mb.fronts[i]
		}
	}
	return nil
}

// frontsFor returns the index in mb.fronts of the front heap of
// communicator mctx, creating the heap if needed. Heaps are never
// removed, so indices stay valid; communicator ids restart identically
// in every world, so a pooled mailbox reuses them.
func (mb *mailbox) frontsFor(mctx int32) int32 {
	for i := range mb.fronts {
		if mb.fronts[i].mctx == mctx {
			return int32(i)
		}
	}
	mb.fronts = append(mb.fronts, frontHeap{mctx: mctx})
	return int32(len(mb.fronts) - 1)
}

// take finalizes the dequeue of a user-level message m found by
// matchUserLocked in arrival FIFO u; the caller has already popped m
// from the index it was found through. The generation bump kills m's
// entry in the other index. If m was u's front, the heap entry is
// re-keyed to the next live front (front() skips m's now-dead arrival
// entry) or removed.
func (mb *mailbox) take(m *message, u *userq) {
	m.gen.Add(1)
	mb.queued -= m.bytes
	mb.nUser--
	fh := &mb.fronts[u.heap]
	i := int(u.hpos)
	e := &fh.h[i]
	if e.m != m {
		return
	}
	next := u.q.front()
	if next == nil {
		fh.remove(i)
		return
	}
	e.m, e.arrive = next, next.arrive
	fh.fix(i)
}

// matchUserLocked finds the queued user-level message matching (src, tag)
// in communicator mctx with the earliest virtual arrival time and, if
// remove is set, dequeues it. Returns nil when nothing matches. now is
// the receiver's current virtual clock, consulted only when schedule
// perturbation is active. The caller holds mb.mu.
//
// Selecting by virtual arrival rather than physical enqueue position
// matters for timing fidelity: goroutine scheduling (especially on few
// cores) can enqueue a late-stamped message ahead of an early-stamped
// one, and processing the late one first would ratchet the receiver's
// clock and contaminate every subsequent reply with artificial delay.
// Only FIFO fronts are ever candidates, so messages from one source
// retain send order (MPI's non-overtaking guarantee). An AnySource
// wildcard takes the minimum (arrive, src) front: for AnyTag that is the
// root of the communicator's front heap; for an exact tag it is the
// minimum over the tag-index fronts of the heap's sources, since a
// source with a live message on the tag has a live arrival FIFO.
//
// Under perturbation (mb.pert with Ties), wildcard selection instead
// draws uniformly among every front that is concurrently available —
// arrival no later than max(now, earliest front arrival) — which is
// exactly the set a real MPI implementation could legally hand back
// first. Selection still only ever takes FIFO fronts, so per-source
// FIFO holds, and an arrival front is by construction also the front of
// its (comm, tag) index, so a probed wildcard status stays consistent
// with the follow-up exact-source receive.
func (mb *mailbox) matchUserLocked(src, tag int, mctx int32, remove bool, now float64) *message {
	var (
		m  *message
		q  *msgq // the index m was found through
		b  *srcBucket
		ui int
	)
	if src != AnySource {
		if b = mb.peek(int32(src)); b == nil {
			return nil
		}
		if ui = b.userIndex(mctx); ui < 0 {
			return nil
		}
		if tag == AnyTag {
			q = &b.user[ui].q
		} else if q = b.tagPeek(mctx, tag); q == nil {
			return nil
		}
		if m = q.front(); m == nil {
			return nil
		}
	} else {
		fh := mb.frontsPeek(mctx)
		if fh == nil || len(fh.h) == 0 {
			return nil
		}
		var e frontEnt
		switch {
		case mb.pert != nil && mb.pert.Ties():
			e = mb.pickAnySourceLocked(fh, tag, now)
		case tag == AnyTag:
			e = fh.h[0]
		default:
			for i := range fh.h {
				c := &fh.h[i]
				tm := c.tagFront(mctx, tag)
				if tm != nil && (e.m == nil || tm.arrive < e.arrive || (tm.arrive == e.arrive && c.src < e.src)) {
					e = *c
					e.m, e.arrive = tm, tm.arrive
				}
			}
		}
		if e.m == nil {
			return nil
		}
		m, b, ui = e.m, e.b, int(e.ui)
		// m is the head of the index it was selected from.
		if tag == AnyTag {
			q = &b.user[ui].q
		} else {
			q = b.tagPeek(mctx, tag)
		}
	}
	if remove {
		q.popFront()
		mb.take(m, &b.user[ui])
	}
	return m
}

// tagFront returns the front of e's source in the (mctx, tag) index, or
// nil when the source has nothing queued on tag.
func (e *frontEnt) tagFront(mctx int32, tag int) *message {
	if tq := e.b.tagPeek(mctx, tag); tq != nil {
		return tq.front()
	}
	return nil
}

// pickAnySourceLocked implements perturbed wildcard selection over the
// sources in fh: the candidates are each source's front matching tag,
// every candidate with virtual arrival <= max(now, earliest arrival) is
// concurrently available, and one is drawn uniformly from the owner
// rank's perturbation stream. The draw indexes the candidates sorted by
// (arrive, src) — not the heap's layout, which depends on push order —
// so a seed replays the same choices given the same candidate sets.
// Returns the zero entry when no source has a match.
func (mb *mailbox) pickAnySourceLocked(fh *frontHeap, tag int, now float64) frontEnt {
	c := mb.cand[:0]
	for _, e := range fh.h {
		if tag != AnyTag {
			if e.m = e.tagFront(fh.mctx, tag); e.m == nil {
				continue
			}
			e.arrive = e.m.arrive
		}
		c = append(c, e)
	}
	var pick frontEnt
	if len(c) > 0 {
		slices.SortFunc(c, func(a, b frontEnt) int {
			if a.before(&b) {
				return -1
			}
			return 1 // sources are distinct, so no two candidates tie
		})
		thr := max(now, c[0].arrive)
		k := 1
		for k < len(c) && c[k].arrive <= thr {
			k++
		}
		pick = c[mb.pert.Pick(k)]
	}
	clear(c) // drop message and bucket pointers until the next pick
	mb.cand = c[:0]
	return pick
}

// drainQueue releases every live message still in q and zeroes the
// ring. front() discards dead entries (zeroing their slots) as it
// walks, so after it returns nil the ring holds no message pointers.
func drainQueue(q *msgq) {
	for m := q.front(); m != nil; m = q.front() {
		q.popFront()
		m.release()
	}
}

// reset drains and reinitializes a mailbox for reuse by the next run.
// Live messages (protocols like the Send-Recv matcher legally finish
// with stale traffic queued) go back to the message pool; the bucket
// index entries and their rings are retained (trimmed of spike-sized
// capacity), since communicator ids restart identically in a fresh
// world, so a pooled mailbox's steady state carries over. So are the
// inbound-arc sets with their chunk buffers: topologies are created in
// the same order in the next run. Only mailboxes from clean runs are reset — failed or
// poisoned runs discard the whole world state.
func (mb *mailbox) reset() {
	for _, b := range mb.used {
		for i := range b.user {
			drainQueue(&b.user[i].q) // primary index: releases each live message
			b.user[i].q.trim()
			b.user[i].hpos = -1
		}
		for i := range b.tags {
			drainQueue(&b.tags[i].q) // secondary index: all entries now dead
			b.tags[i].q.trim()
		}
	}
	for _, set := range mb.arcs[:mb.arcN] {
		for i := range set {
			set[i].reset()
		}
	}
	mb.arcN = 0
	for i := range mb.fronts {
		clear(mb.fronts[i].h)
		mb.fronts[i].h = mb.fronts[i].h[:0]
	}
	mb.nUser = 0
	mb.owner = nil
	mb.parked = false
	mb.poisoned = false
	mb.pert = nil
	mb.queued = 0
	mb.hw = 0
}

// pendingUser returns the number of live user-level messages queued.
func (mb *mailbox) pendingUser() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.nUser
}

func (mb *mailbox) poison() {
	mb.mu.Lock()
	mb.poisoned = true
	wake := mb.parked
	mb.parked = false
	owner := mb.owner
	mb.mu.Unlock()
	if wake && owner != nil {
		owner.unpark()
	}
}

// queuedBytes snapshots the current eager-buffer occupancy. Unlike hw it
// is a live value, sampled by the round-telemetry layer at round
// boundaries while senders are still pushing.
func (mb *mailbox) queuedBytes() int64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.queued
}

// highWater snapshots the eager-buffer high-water mark. After poisoning
// the value is stable: push is a no-op on a poisoned mailbox, so a late
// sender racing a failed run cannot move it.
func (mb *mailbox) highWater() int64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.hw
}
