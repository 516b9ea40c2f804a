package main

import (
	"testing"

	"livo/internal/transport"
)

func wire(p transport.Packet) []byte {
	return append([]byte{transport.MediaMagic}, p.Marshal()...)
}

func frag(stream uint8, seq uint32, idx, count uint16, key bool, rung uint8) []byte {
	return wire(transport.Packet{Stream: stream, FrameSeq: seq, FragIndex: idx, FragCount: count,
		Key: key, Rung: rung, Payload: []byte{1, 2, 3}})
}

// TestParseMediaMatchesTransport keeps the sink's in-place header read in
// step with transport's wire format.
func TestParseMediaMatchesTransport(t *testing.T) {
	data := make([]byte, 3*transport.MTU+17)
	for _, key := range []bool{false, true} {
		for rung := uint8(0); rung < transport.MaxRungs; rung++ {
			pkts := transport.PacketizeRung(transport.StreamDepth, 70000, key, rung, 12345, data)
			pkts = append(pkts, transport.BuildParity(pkts)...)
			for _, p := range pkts {
				m, ok := parseMedia(wire(p))
				want := media{stream: p.Stream, seq: p.FrameSeq, frag: p.FragIndex, fragCount: p.FragCount,
					key: p.Key, parity: p.Parity, rung: p.Rung}
				if !ok || m != want {
					t.Fatalf("parseMedia = %+v, %v; want %+v", m, ok, want)
				}
			}
		}
	}
	if _, ok := parseMedia([]byte{transport.FBREMB, 0, 0}); ok {
		t.Error("feedback parsed as media")
	}
}

func TestSinkCompletesFrameOnce(t *testing.T) {
	var s sink
	in := [][]byte{
		frag(transport.StreamColor, 0, 0, 2, true, 0),
		frag(transport.StreamDepth, 0, 0, 1, true, 0),
		frag(transport.StreamColor, 0, 0, 2, true, 0), // duplicate
		frag(transport.StreamColor, 0, 1, 2, true, 1), // another rung of the frame
		frag(transport.StreamColor, 0, 1, 2, true, 0), // completes
		frag(transport.StreamColor, 0, 1, 2, true, 0), // duplicate after completion
	}
	var completes []int
	for i, b := range in {
		if a, ok := s.observe(b); ok && a.complete {
			completes = append(completes, i)
		}
	}
	if len(completes) != 1 || completes[0] != 4 {
		t.Errorf("frame completed at datagrams %v, want [4]", completes)
	}
}

// TestSinkOffKeySwitch exercises the switch-only-at-key check: a non-key
// frame must arrive on a rung the stream's previous frame arrived on.
func TestSinkOffKeySwitch(t *testing.T) {
	const c, d = transport.StreamColor, transport.StreamDepth
	cases := []struct {
		name string
		in   [][]byte
		want int
	}{
		{"switch at a key frame", [][]byte{
			frag(c, 0, 0, 1, true, 0), frag(c, 1, 0, 1, false, 0),
			frag(c, 2, 0, 1, true, 1), frag(c, 3, 0, 1, false, 1),
		}, 0},
		{"switch on a P-frame", [][]byte{
			frag(c, 0, 0, 1, true, 0), frag(c, 1, 0, 1, false, 1),
		}, 1},
		// The relay committed a switch at the depth key of frame 0 after
		// the color of frame 0 had gone out on the old rung.
		{"one stream switches a frame late", [][]byte{
			frag(c, 0, 0, 1, true, 0), frag(d, 0, 0, 1, true, 1),
			frag(c, 1, 0, 1, false, 1), frag(d, 1, 0, 1, false, 1),
		}, 1},
		{"a frame on both rungs keeps either reference", [][]byte{
			frag(c, 0, 0, 1, true, 0), frag(c, 0, 0, 1, true, 1),
			frag(c, 1, 0, 1, false, 1),
		}, 0},
		{"retransmission of an older frame", [][]byte{
			frag(c, 4, 0, 1, true, 1), frag(c, 5, 0, 1, false, 1),
			frag(c, 3, 0, 1, false, 0), frag(c, 6, 0, 1, false, 1),
		}, 0},
		{"after a lost frame nothing is judged", [][]byte{
			frag(c, 0, 0, 1, true, 0), frag(c, 2, 0, 1, false, 1),
		}, 0},
		{"counted once per frame", [][]byte{
			frag(c, 0, 0, 2, true, 0), frag(c, 1, 0, 2, false, 1), frag(c, 1, 1, 2, false, 1),
		}, 1},
	}
	for _, tc := range cases {
		var s sink
		for _, b := range tc.in {
			s.observe(b)
		}
		if s.offKeySwitches != tc.want {
			t.Errorf("%s: %d off-key switches, want %d", tc.name, s.offKeySwitches, tc.want)
		}
	}
}
