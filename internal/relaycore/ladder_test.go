package relaycore

import (
	"fmt"
	"testing"
	"time"

	"livo/internal/frametrace"
	"livo/internal/transport"
)

// mediaWireRung builds one on-the-wire media packet carrying a quality-rung
// id in its flags byte.
func mediaWireRung(stream uint8, seq uint32, frag, count uint16, key bool, rung uint8, payload []byte) []byte {
	p := transport.Packet{
		Stream: stream, FrameSeq: seq, FragIndex: frag, FragCount: count,
		Key: key, Rung: rung, Payload: payload,
	}
	return append([]byte{transport.MediaMagic}, p.Marshal()...)
}

// ladderHarness streams a 3-rung ladder into a router frame by frame and
// records what one subscriber received. Fragment counts shrink up the
// ladder (4/2/1 × 300 B) so the per-rung rate estimator sees distinct
// bitrates: at the 33 ms frame cadence rung 0 ≈ 300 kb/s, rung 1 ≈ 150,
// rung 2 ≈ 75.
type ladderHarness struct {
	t   *testing.T
	r   *Router
	clk *fakeClock
	seq uint32
}

var ladderFrags = [3]uint16{4, 2, 1}

// frame routes one frame at every rung and advances the clock one tick.
func (h *ladderHarness) frame(key bool) {
	pool := h.r.Pool()
	payload := make([]byte, 300)
	for rung := uint8(0); rung < 3; rung++ {
		n := ladderFrags[rung]
		for f := uint16(0); f < n; f++ {
			h.r.RouteMedia(pool.Load(mediaWireRung(1, h.seq, f, n, key, rung, payload)))
		}
	}
	h.seq++
	h.clk.Advance(33 * time.Millisecond)
}

// deliveredRungs reassembles the subscriber's delivery log into the ordered
// per-frame view (seq, rung, key), failing the test if any frame mixed
// fragments from two rungs — the exact corruption a stateful decoder
// cannot survive.
type frameRung struct {
	seq  uint32
	rung uint8
	key  bool
}

func deliveredRungs(t *testing.T, rec *recWriter, sub *recSub) []frameRung {
	t.Helper()
	var out []frameRung
	for _, b := range rec.payloads(sub.addr) {
		if len(b) < 2 || b[0] != transport.MediaMagic {
			continue
		}
		p, err := transport.Unmarshal(b[1:])
		if err != nil {
			t.Fatalf("undeliverable wire packet: %v", err)
		}
		if p.Stream != 1 || p.Parity {
			continue
		}
		if n := len(out); n > 0 && out[n-1].seq == p.FrameSeq {
			if out[n-1].rung != p.Rung {
				t.Fatalf("frame %d delivered with mixed rungs %d and %d",
					p.FrameSeq, out[n-1].rung, p.Rung)
			}
			continue
		}
		out = append(out, frameRung{seq: p.FrameSeq, rung: p.Rung, key: p.Key})
	}
	return out
}

type recSub struct{ addr *fakeAddr }

type fakeAddr struct{ s string }

func (a *fakeAddr) Network() string { return "udp" }
func (a *fakeAddr) String() string  { return a.s }

// TestLadderSwitchAtKeyBoundary drives one subscriber through a full
// down/up cycle: REMB collapse selects the quarter rung and the delivered
// stream switches exactly at a key frame (after the relay pulled one
// forward via PLI); REMB recovery switches back up at the next periodic
// key, within one GOP. Every delivered frame is single-rung and every rung
// transition lands on a key frame, so a stateful decoder crosses each
// switch without error. Runs at shards=1 and 4 (tier-1 repeats this under
// -race), and checks the pool drains to zero at close with all three rungs
// in flight.
func TestLadderSwitchAtKeyBoundary(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := &fakeClock{}
			rec := newRecWriter()
			cfg := testConfig()
			cfg.Shards = shards
			cfg.Now = clk.Now
			cfg.Events = frametrace.NewEventRing(256)
			r := NewRouter(rec, senderAddr(), cfg)
			h := &ladderHarness{t: t, r: r, clk: clk}

			subAddr := udp(1)
			r.Subscribe(subAddr)
			sub := &recSub{addr: &fakeAddr{s: subAddr.String()}}

			const gop = 10
			remb := func(bps float64) { r.RouteFeedback(transport.AppendREMB(nil, bps), subAddr) }

			// Phase A: plenty of bandwidth. Two GOPs warm up the per-rung
			// rate estimator (first REMB only records baselines). The cold
			// start is ordered deterministically: every shard's ingest is
			// held while the first frame (a key on all three rungs) is
			// routed and the first REMB lands, so the selector runs before
			// any delivery decision, and drained before the next REMB can
			// revise the assignment. A selector that assigned a rung off
			// the estimator's empty baseline would commit it at this very
			// key frame.
			for _, s := range r.shards {
				s.hold.Lock()
			}
			h.frame(true)
			remb(1e6)
			for _, s := range r.shards {
				s.hold.Unlock()
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain the first frame")
			}
			for i := 1; i < 2*gop; i++ {
				h.frame(h.seq%gop == 0)
				remb(1e6)
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain phase A")
			}
			for _, fr := range deliveredRungs(t, rec, sub) {
				if fr.rung != 0 {
					t.Fatalf("frame %d on rung %d before any downswitch, want 0", fr.seq, fr.rung)
				}
			}

			// Phase B: collapse to 120 kb/s — only the 75 kb/s quarter rung
			// fits under the 0.9 headroom. The downswitch must ride the PLI
			// path; the "sender" responds with an immediate key frame.
			remb(120e3)
			pliSeen := false
			for _, p := range rec.payloads(senderAddr()) {
				if len(p) > 0 && p[0] == transport.FBPLI {
					pliSeen = true
				}
			}
			if !pliSeen {
				t.Fatal("downswitch did not forward a PLI to the sender")
			}
			h.frame(true) // the PLI-pulled key: switch commits here
			for i := 0; i < gop-1; i++ {
				h.frame(false)
				remb(120e3)
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain phase B")
			}

			// Phase C: recovery. No PLI this direction — the upswitch waits
			// for the next periodic key, i.e. commits within one GOP.
			remb(1e6)
			upReq := h.seq // frame index when the upswitch was requested
			for i := 0; i < 2*gop; i++ {
				h.frame(h.seq%gop == 0)
				remb(1e6)
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain phase C")
			}

			frames := deliveredRungs(t, rec, sub)
			if len(frames) == 0 {
				t.Fatal("no frames delivered")
			}
			sawDown, sawUp := false, false
			for i := 1; i < len(frames); i++ {
				prev, cur := frames[i-1], frames[i]
				if cur.rung != prev.rung {
					if !cur.key {
						t.Fatalf("rung switch %d→%d at frame %d which is not a key frame",
							prev.rung, cur.rung, cur.seq)
					}
					if cur.rung > prev.rung {
						sawDown = true
					} else {
						sawUp = true
						if cur.seq-upReq > gop {
							t.Fatalf("upswitch took %d frames (> one GOP of %d)", cur.seq-upReq, gop)
						}
					}
				}
			}
			if !sawDown || !sawUp {
				t.Fatalf("switch coverage: down=%v up=%v, want both", sawDown, sawUp)
			}
			last := frames[len(frames)-1]
			if last.rung != 0 {
				t.Fatalf("final rung = %d after recovery, want 0", last.rung)
			}

			st := r.Stats()
			if st.RungSwitches != 2 {
				t.Fatalf("RungSwitches = %d, want 2 (one down, one up)", st.RungSwitches)
			}
			if len(st.Subs) != 1 || st.Subs[0].Rung != 0 || st.Subs[0].RungSwitches != 2 {
				t.Fatalf("per-sub rung stats = %+v, want rung 0 with 2 switches", st.Subs)
			}
			if st.RungSubscribers[0] != 1 {
				t.Fatalf("RungSubscribers = %v, want subscriber counted on rung 0", st.RungSubscribers)
			}

			// Each committed switch carries the selector's inputs: the REMB,
			// every live rung's rate estimate, and an estimator age of at
			// least one full measurement interval.
			var switchEvents int
			for _, ev := range cfg.Events.Recent(cfg.Events.Cap()) {
				if ev.Kind != frametrace.EvRungSwitch {
					continue
				}
				switchEvents++
				if _, _, remb := frametrace.UnpackRungSwitch(ev.Val); remb <= 0 {
					t.Fatalf("rung switch event without its REMB: %+v", ev)
				}
				for rung := 0; rung < 3; rung++ {
					if ev.Aux[rung] <= 0 {
						t.Fatalf("rung switch event without rung %d's rate: %+v", rung, ev)
					}
				}
				if age := time.Duration(ev.Aux[4]); age < rungRateMinInterval {
					t.Fatalf("rung switch selected on a %v-old estimator: %+v", age, ev)
				}
			}
			if switchEvents != 2 {
				t.Fatalf("%d rung switch events, want 2", switchEvents)
			}

			r.Close()
			if st := r.Stats(); st.PoolLive != 0 {
				t.Fatalf("PoolLive = %d after close with rungs active, want 0", st.PoolLive)
			}
		})
	}
}
