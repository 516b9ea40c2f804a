package main

import (
	"encoding/binary"

	"livo/internal/transport"
)

// Wire layout of a relayed media datagram: transport.MediaMagic, then the
// header transport.Packet.Marshal writes. The sink reads the header in
// place; TestParseMediaMatchesTransport keeps the offsets honest.
const (
	offStream    = 1
	offSeq       = 2
	offFragIndex = 6
	offFragCount = 8
	offFlags     = 10
	mediaHeader  = 1 + 20
)

// media is the part of a media datagram's header a sink needs.
type media struct {
	stream          uint8
	seq             uint32
	frag, fragCount uint16
	key, parity     bool
	rung            uint8
}

func parseMedia(b []byte) (media, bool) {
	if len(b) < mediaHeader || b[0] != transport.MediaMagic {
		return media{}, false
	}
	f := b[offFlags]
	m := media{
		stream:    b[offStream],
		seq:       binary.BigEndian.Uint32(b[offSeq:]),
		frag:      binary.BigEndian.Uint16(b[offFragIndex:]),
		fragCount: binary.BigEndian.Uint16(b[offFragCount:]),
		key:       f&transport.FlagKey != 0,
		parity:    f&transport.FlagParity != 0,
		rung:      (f & transport.FlagRungMask) >> transport.FlagRungShift,
	}
	return m, m.fragCount > 0 && m.frag < m.fragCount
}

// sinkSlots is how many frames a sink assembles at once; a frame still
// incomplete when its slot is reused 2 s later was lost.
const sinkSlots = 64

// maxFrags bounds the fragments per stream a sink tracks.
const maxFrags = 512

type streamAsm struct {
	rung      uint8
	got, need uint16
	bits      [maxFrags / 64]uint64
}

type frameAsm struct {
	seq     uint32
	used    bool
	done    bool
	streams [2]streamAsm
}

// sink is a counting subscriber: it reassembles nothing, but tracks which
// fragments of each frame arrived, so a frame is usable once every
// fragment of both streams at the subscriber's rung is in. It also checks
// from outside the relay that the subscriber's rung changes only at key
// frames: a non-key frame must arrive on a rung the stream's previous
// frame also arrived on, or the subscriber has no reference to decode it
// against. A sink is owned by the hub's demux goroutine.
type sink struct {
	slots   [sinkSlots]frameAsm
	streams [2]rungTrack
	// offKeySwitches counts frames that arrived on a rung without a key
	// frame and without the previous frame on that rung.
	offKeySwitches int
}

// rungTrack follows the rungs one stream's newest frames arrived on.
type rungTrack struct {
	seen      bool
	seq       uint32 // newest frame seen
	rungs     uint8  // rungs frame seq arrived on (bit per rung)
	prevRungs uint8  // rungs frame seq-1 arrived on; 0 when it never did
	flagged   bool   // seq already counted as an off-key switch
}

func (t *rungTrack) observe(m media) (offKey bool) {
	switch {
	case !t.seen || int32(m.seq-t.seq) > 0:
		if t.seen && m.seq == t.seq+1 {
			t.prevRungs = t.rungs
		} else {
			t.prevRungs = 0
		}
		t.seen, t.seq, t.rungs, t.flagged = true, m.seq, 0, false
	case m.seq != t.seq:
		return false // an older frame: retransmissions are not switches
	}
	bit := uint8(1) << m.rung
	t.rungs |= bit
	if m.key || t.prevRungs == 0 || t.prevRungs&bit != 0 || t.flagged {
		return false
	}
	t.flagged = true
	return true
}

// arrival is what one datagram meant to a sink.
type arrival struct {
	seq      uint32
	complete bool // the datagram that made the frame usable
}

// observe takes one datagram; ok is false for anything but a media
// fragment of a frame still being tracked.
func (s *sink) observe(b []byte) (a arrival, ok bool) {
	m, ok := parseMedia(b)
	if !ok || m.parity || m.stream < transport.StreamColor || m.stream > transport.StreamDepth {
		return arrival{}, false
	}
	a.seq = m.seq
	si := m.stream - transport.StreamColor
	if s.streams[si].observe(m) {
		s.offKeySwitches++
	}
	f := &s.slots[m.seq%sinkSlots]
	if !f.used || f.seq != m.seq {
		if f.used && int32(m.seq-f.seq) < 0 {
			return arrival{}, false // straggler of a frame whose slot was reused
		}
		*f = frameAsm{seq: m.seq, used: true}
	}
	st := &f.streams[si]
	if st.need == 0 {
		st.need, st.rung = m.fragCount, m.rung
	}
	if m.rung != st.rung || m.fragCount != st.need || m.frag >= maxFrags {
		return a, true
	}
	w, bit := m.frag/64, uint64(1)<<(m.frag%64)
	if st.bits[w]&bit != 0 {
		return a, true // duplicate
	}
	st.bits[w] |= bit
	st.got++
	c, d := &f.streams[0], &f.streams[1]
	if !f.done && c.need > 0 && d.need > 0 && c.got == c.need && d.got == d.need {
		f.done = true
		a.complete = true
	}
	return a, true
}
