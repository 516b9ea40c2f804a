package frametrace

import (
	"sync/atomic"
	"time"
)

// EventKind classifies one structured data-plane event.
type EventKind uint8

const (
	EvFrameDrop     EventKind = iota // subscriber queue dropped a frame; Val is a DropReason
	EvPLI                            // PLI forwarded to the sender
	EvLivenessEvict                  // subscriber evicted for silence; Val is silence ns
	EvRetxHit                        // NACK served from the retransmission cache
	EvRetxMiss                       // NACK escalated to the sender
	EvREMB                           // forwarded REMB minimum changed; Val is bps
	EvRungSwitch                     // subscriber rung switch committed; Val is RungSwitchVal, Aux is RungSwitchAux
	NumEventKinds   int       = iota
)

var eventNames = [NumEventKinds]string{
	"frame_drop", "pli", "liveness_evict", "retx_hit", "retx_miss", "remb",
	"rung_switch",
}

func (k EventKind) String() string {
	if int(k) < NumEventKinds {
		return eventNames[k]
	}
	return "event?"
}

// DropReason says why a subscriber queue dropped a frame; carried in
// EvFrameDrop's Val field.
type DropReason int64

const (
	DropReject DropReason = iota // ring full, nothing evictable
	DropDelta                    // delta frame evicted to admit a newer frame
	DropKey                      // key frame evicted to admit a newer key frame
)

func (r DropReason) String() string {
	switch r {
	case DropReject:
		return "reject"
	case DropDelta:
		return "evict_delta"
	case DropKey:
		return "evict_key"
	}
	return "drop?"
}

// RungSwitchVal packs a rung switch's context into an event Val: the old
// and new rung ids plus the REMB estimate (bps) that triggered the
// reassignment.
func RungSwitchVal(oldRung, newRung uint8, rembBps int64) int64 {
	return rembBps<<16 | int64(oldRung)<<8 | int64(newRung)
}

// UnpackRungSwitch is the inverse of RungSwitchVal.
func UnpackRungSwitch(v int64) (oldRung, newRung uint8, rembBps int64) {
	return uint8(v >> 8), uint8(v), v >> 16
}

// NumAux is how many kind-specific auxiliary values an event carries.
const NumAux = 5

// RungSwitchAux lays out the rest of a rung switch's selector inputs in
// Event.Aux: the per-rung bitrate estimates (bps, rungs 0..3) the REMB was
// compared against, and the estimator's age — ns since its first baseline
// — when the selector chose. A selection on a cold estimator shows up as
// a small age.
func RungSwitchAux(rungBps [4]int64, estAgeNs int64) [NumAux]int64 {
	return [NumAux]int64{rungBps[0], rungBps[1], rungBps[2], rungBps[3], estAgeNs}
}

// Event is one recorded data-plane event.
type Event struct {
	Kind   EventKind
	Stream uint8
	Seq    uint32 // frame or packet sequence the event concerns; 0 if none
	Sub    int32  // subscriber id; -1 if not tied to one subscriber
	Val    int64  // kind-specific value (drop reason, bps, ns)
	TimeNs int64
	Aux    [NumAux]int64 // kind-specific extras (EvRungSwitch: RungSwitchAux); zero otherwise
}

// eventSlot follows the same ticket-publication scheme as Ledger slots.
type eventSlot struct {
	ticket atomic.Uint64
	meta   atomic.Uint64 // seq<<32 | kind<<8 | stream
	sub    atomic.Int64
	val    atomic.Int64
	t      atomic.Int64
	aux    [NumAux]atomic.Int64
}

// EventRing is a fixed-capacity lock-free ring of recent data-plane
// events. A nil *EventRing ignores all events.
type EventRing struct {
	slots []eventSlot
	mask  uint64
	next  atomic.Uint64
}

// NewEventRing creates a ring with at least capacity entries (rounded up
// to a power of two; minimum 64).
func NewEventRing(capacity int) *EventRing {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &EventRing{slots: make([]eventSlot, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity; 0 for a nil ring.
func (r *EventRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Recorded returns how many events have ever been recorded.
func (r *EventRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Add records one event at time.Now(). Safe for concurrent use; free of
// allocations; a no-op on nil.
func (r *EventRing) Add(kind EventKind, stream uint8, seq uint32, sub int32, val int64) {
	r.AddAux(kind, stream, seq, sub, val, [NumAux]int64{})
}

// AddAux is Add with the event's auxiliary values.
func (r *EventRing) AddAux(kind EventKind, stream uint8, seq uint32, sub int32, val int64, aux [NumAux]int64) {
	if r == nil {
		return
	}
	i := r.next.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.ticket.Store(0)
	s.meta.Store(uint64(seq)<<32 | uint64(kind)<<8 | uint64(stream))
	s.sub.Store(int64(sub))
	s.val.Store(val)
	s.t.Store(time.Now().UnixNano())
	for k := range aux {
		s.aux[k].Store(aux[k])
	}
	s.ticket.Store(i + 1)
}

// Recent returns up to n of the most recent events, oldest first.
func (r *EventRing) Recent(n int) []Event {
	if r == nil {
		return nil
	}
	cur := r.next.Load()
	if n <= 0 || cur == 0 {
		return nil
	}
	if uint64(n) > cur {
		n = int(cur)
	}
	if n > len(r.slots) {
		n = len(r.slots)
	}
	out := make([]Event, 0, n)
	for i := cur - uint64(n); i < cur; i++ {
		s := &r.slots[i&r.mask]
		if s.ticket.Load() != i+1 {
			continue
		}
		meta, sub, val, t := s.meta.Load(), s.sub.Load(), s.val.Load(), s.t.Load()
		var aux [NumAux]int64
		for k := range aux {
			aux[k] = s.aux[k].Load()
		}
		if s.ticket.Load() != i+1 {
			continue
		}
		out = append(out, Event{
			Kind:   EventKind(meta >> 8 & 0xff),
			Stream: uint8(meta & 0xff),
			Seq:    uint32(meta >> 32),
			Sub:    int32(sub),
			Val:    val,
			TimeNs: t,
			Aux:    aux,
		})
	}
	return out
}
