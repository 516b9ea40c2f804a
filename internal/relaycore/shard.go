package relaycore

import (
	"sync"
	"sync/atomic"

	"livo/internal/frametrace"
	"livo/internal/telemetry"
)

// shard is one core's slice of the data plane, SO_REUSEPORT-style: it owns
// a partition of the subscriber registry, its own packet-buffer pool (so
// ingest loads never contend across cores), a bounded ingest ring fed by
// RouteMedia, and a ready list of subscriber queues with pending packets.
// One ingest goroutine fans ring descriptors into the partition's queues;
// the router's writer workers (writersPerShard per shard) drain ready
// queues in WriteBatch-sized pops, stealing from other shards' ready lists
// when their home shard has nothing — one slow partition cannot idle other
// cores.
type shard struct {
	id   int
	pool *BufPool

	// Partition snapshot (copy-on-write under the router's membership
	// mutex); the ingest goroutine reads it with one atomic load.
	subs atomic.Pointer[[]*Subscriber]

	// Ingest ring: descriptors {buf, fid} pushed by RouteMedia (possibly
	// many producers — one per reuseport socket), popped in batches by the
	// single ingest goroutine. A full ring backpressures the producer.
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	ring     []ingestEntry
	mask     int
	head     int
	size     int
	closed   bool

	// pending counts descriptors pushed but not yet fanned out, so WaitIdle
	// cannot report idle while a popped batch is mid-fan-out.
	pending atomic.Int64

	// Ready list: FIFO of queues with packets to write. notify (cap 1)
	// wakes this shard's parked writer workers.
	readyMu   sync.Mutex
	ready     []*SubQueue
	readyHead int
	notify    chan struct{}

	// hold is taken by the ingest goroutine around each batch's fan-out;
	// holding it from outside parks ingest between batches while
	// RouteMedia keeps filling the ring (tests use it to order a delivery
	// decision after a feedback one).
	hold sync.Mutex

	routed atomic.Int64 // packets fanned out by this shard's ingest worker
	stolen atomic.Int64 // queues this shard's workers stole from other shards

	// Retransmission cache owned by this shard (nil when disabled). The
	// ingest goroutine inserts cache-flagged descriptors; the router's
	// feedback path looks up NACKs. now is the router's clock.
	retx *retxCache
	now  func() int64

	// trace, when non-nil, receives shard_route and sub_enqueue stamps for
	// each frame's first fragment (cfg.Trace; nil disables tracing).
	trace *frametrace.Ledger

	// Quality-ladder hooks (router-owned): events receives rung-switch
	// events (nil-safe), rungSwitches and telRungSwitch count commits. The
	// commit itself runs here because each subscriber is fanned out by
	// exactly one ingest goroutine, so its curRung never races a delivery
	// decision.
	events        *frametrace.EventRing
	rungSwitches  *atomic.Int64
	telRungSwitch *telemetry.Counter
	ladderSeen    *atomic.Bool

	telRouted, telStolen *telemetry.Counter
}

type ingestEntry struct {
	buf   *PacketBuf
	fid   frameID
	rk    nackKey // retransmission-cache key (valid when cache is set)
	cache bool    // this shard owns caching this packet
	first bool    // frame's first fragment — the one trace stamp sites fire on
	frag0 bool    // first data fragment of a media frame (rung-switch commit point)
}

// ingestRingCap bounds per-shard ingest backlog (power of two). At 2048
// descriptors it absorbs a multi-frame burst before backpressuring the
// read loop.
const ingestRingCap = 2048

// ingestBatch bounds how many descriptors the ingest worker pops per lock
// acquisition.
const ingestBatch = 64

func newShard(id int, pool *BufPool, telRouted, telStolen *telemetry.Counter) *shard {
	s := &shard{
		id:        id,
		pool:      pool,
		ring:      make([]ingestEntry, ingestRingCap),
		mask:      ingestRingCap - 1,
		notify:    make(chan struct{}, 1),
		telRouted: telRouted,
		telStolen: telStolen,
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	empty := []*Subscriber{}
	s.subs.Store(&empty)
	return s
}

// subCount returns the partition size with one atomic load (RouteMedia
// skips shards with no subscribers).
func (s *shard) subCount() int { return len(*s.subs.Load()) }

// push hands one packet descriptor to the shard, taking ownership of the
// caller's reference on success. It blocks while the ring is full
// (backpressure) and returns false once the shard is closed.
func (s *shard) push(e ingestEntry) bool {
	s.mu.Lock()
	for s.size == len(s.ring) && !s.closed {
		s.notFull.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.ring[(s.head+s.size)&s.mask] = e
	s.size++
	s.pending.Add(1)
	wake := s.size == 1
	s.mu.Unlock()
	if wake {
		s.notEmpty.Signal()
	}
	return true
}

// popIngest fills batch with queued descriptors, blocking until at least
// one arrives. On close it releases any remaining backlog and reports
// done=false.
func (s *shard) popIngest(batch []ingestEntry) (n int, ok bool) {
	s.mu.Lock()
	for s.size == 0 && !s.closed {
		s.notEmpty.Wait()
	}
	if s.closed {
		for s.size > 0 {
			e := &s.ring[s.head]
			e.buf.Release()
			*e = ingestEntry{}
			s.head = (s.head + 1) & s.mask
			s.size--
			s.pending.Add(-1)
		}
		s.mu.Unlock()
		return 0, false
	}
	n = s.size
	if n > len(batch) {
		n = len(batch)
	}
	for i := 0; i < n; i++ {
		batch[i] = s.ring[(s.head+i)&s.mask]
		s.ring[(s.head+i)&s.mask] = ingestEntry{}
	}
	s.head = (s.head + n) & s.mask
	s.size -= n
	s.mu.Unlock()
	s.notFull.Broadcast()
	return n, true
}

// runIngest is the shard's ingest goroutine: it pops descriptor batches and
// enqueues a reference onto every queue in the shard's partition. This is
// the per-packet fan-out work the sharding spreads across cores.
func (s *shard) runIngest(wg *sync.WaitGroup) {
	defer wg.Done()
	batch := make([]ingestEntry, ingestBatch)
	for {
		n, ok := s.popIngest(batch)
		if !ok {
			return
		}
		s.hold.Lock()
		subs := *s.subs.Load()
		for i := 0; i < n; i++ {
			e := batch[i]
			batch[i] = ingestEntry{}
			if e.cache && s.retx != nil {
				s.retx.Insert(e.rk, e.buf, s.now())
			}
			for _, sub := range subs {
				// shard_route is stamped per subscriber (not once per
				// shard with NoSub): a NoSub stamp from another shard —
				// or from the retx-cache owner's subscriber-less visit —
				// can land after this shard's sub_enqueue, and the
				// collector's max-wins merge would then show the frame
				// leaving the shard after it entered the queue.
				if e.first {
					s.trace.StampNow(frametrace.HopShardRoute, e.fid.stream, e.fid.seq, sub.q.sub)
				}
				if !s.admitRung(sub, &e) {
					continue
				}
				e.buf.Retain()
				if !sub.q.Enqueue(e.buf, e.fid) {
					e.buf.Release()
				} else if e.first {
					s.trace.StampNow(frametrace.HopSubEnqueue, e.fid.stream, e.fid.seq, sub.q.sub)
				}
			}
			e.buf.Release()
			s.pending.Add(-1)
		}
		s.hold.Unlock()
		s.routed.Add(int64(n))
		s.telRouted.Add(int64(n))
	}
}

// admitRung reports whether a packet passes the subscriber's quality-rung
// filter, committing a pending rung switch first when the packet opens a
// key frame. The commit point is the first data fragment of a key frame —
// regardless of which rung's copy arrives first — so the old rung's stream
// ends cleanly at the previous frame and the new rung starts at a key:
// exactly the boundary a stateful decoder can cross. Non-media packets
// (pongs, pings) always pass. Legacy single-rung streams carry rung 0
// everywhere and every subscriber starts at rung 0, so the filter admits
// everything until a ladder and a reassignment exist.
func (s *shard) admitRung(sub *Subscriber, e *ingestEntry) bool {
	// Until a ladder is observed every packet is rung 0 and every
	// subscriber sits at rung 0 with no pending reassignment
	// (selectRungLocked only runs once ladderSeen latches), so the filter
	// is a guaranteed admit — skip its per-subscriber atomic loads.
	if !s.ladderSeen.Load() {
		return true
	}
	return commitAndFilterRung(sub, e.fid, e.frag0, s.events, s.rungSwitches, s.telRungSwitch)
}

// close wakes everything parked on the ingest ring; the ingest goroutine
// releases the remaining backlog on its way out.
func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notEmpty.Broadcast()
	s.notFull.Broadcast()
}

// pushReady appends a queue to the shard's ready list and wakes one parked
// worker. A queue is in at most one ready list at a time (queue state
// machine), so the list is bounded by the partition size.
func (s *shard) pushReady(q *SubQueue) {
	s.readyMu.Lock()
	s.ready = append(s.ready, q)
	s.readyMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// popReady removes the oldest ready queue (FIFO — a hot queue re-pushed
// after each batch cannot starve its shard-mates), or nil.
func (s *shard) popReady() *SubQueue {
	s.readyMu.Lock()
	if s.readyHead == len(s.ready) {
		if s.readyHead > 0 {
			s.ready = s.ready[:0]
			s.readyHead = 0
		}
		s.readyMu.Unlock()
		return nil
	}
	q := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	s.readyMu.Unlock()
	return q
}

// idle reports whether the shard has no queued or in-flight ingest work.
func (s *shard) idle() bool { return s.pending.Load() == 0 }
