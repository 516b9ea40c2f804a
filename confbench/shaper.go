package main

import (
	"container/heap"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/netem"
	"livo/internal/trace"
	"livo/internal/udpio"
)

// lossyLeg is the seeded impairment of the relay→viewer leg: the mobile
// bandwidth trace (trace-2, scaled to a given mean and replayed in real
// time from traceOffset) through a netem.Link, then netem's default fault
// mix (bursty loss, duplication, reordering, bit flips) on a schedule the
// seed sets. Given the same seed and the same (time, datagram) sequence it
// yields the same deliveries.
type lossyLeg struct {
	link  *netem.Link
	chaos *netem.Chaos
}

// delivery is one datagram copy leaving the leg at time at (seconds on the
// leg's clock).
type delivery struct {
	at      float64
	payload []byte
}

// udpOverhead is the IP+UDP header bytes a datagram occupies on the link.
const udpOverhead = 28

// traceOffset is where in trace-2 (1 s samples) every conference starts:
// three mobility dips follow, 5, 13 and 20 s in, so every run and both
// halves of a traced run cross the same dips, and the first seconds, where
// set-up is timed, are clear of them. From a seeded offset a run would see
// a dip or none, and its tail latency would say which rather than how the
// system copes.
const traceOffset = 452

// queueSeconds sizes the link's droptail queue: 100 ms at the trace's mean
// rate. netem's 2 MB default, scaled with the link, holds 180 ms at the
// mean but 440 ms in trace-2's deepest dips, and whether a run's key frames
// met that full queue in a dip decided its tail latency.
const queueSeconds = 0.1

func newLossyLeg(seed int64, meanMbps float64) *lossyLeg {
	tr := trace.Trace2()
	tr = tr.Scale(meanMbps / tr.Stats().Mean)
	tr.Mbps = append(tr.Mbps[traceOffset:], tr.Mbps[:traceOffset]...)
	link := netem.NewLink(tr)
	link.QueueBytes = int(meanMbps * 1e6 / 8 * queueSeconds)
	return &lossyLeg{link: link, chaos: netem.NewChaos(netem.DefaultChaosConfig(seed))}
}

// pass sends one datagram into the leg at time t (non-decreasing) and
// returns the copies that come out; payloads alias b unless a bit flip
// made a private copy.
func (l *lossyLeg) pass(t float64, b []byte) []delivery {
	at, dropped := l.link.Send(t, len(b)+udpOverhead)
	if dropped {
		return nil
	}
	var out []delivery
	for _, d := range l.chaos.Apply(b) {
		out = append(out, delivery{at: at + d.ExtraDelay, payload: d.Payload})
	}
	return out
}

// countingConn is a socket that counts the datagram bytes it reads (the
// viewer's socket in a single-viewer workload: what the relay delivered)
// and writes (the sender's socket: what the sender put on the wire).
type countingConn struct {
	*udpio.Socket
	rxBytes, txBytes atomic.Int64
}

func (c *countingConn) ReadBatch(ms []udpio.Message) (int, error) {
	n, err := c.Socket.ReadBatch(ms)
	for i := 0; i < n; i++ {
		c.rxBytes.Add(int64(ms[i].N))
	}
	return n, err
}

func (c *countingConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, addr, err := c.Socket.ReadFrom(b)
	c.rxBytes.Add(int64(n))
	return n, addr, err
}

func (c *countingConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	n, err := c.Socket.WriteTo(b, addr)
	c.txBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) WriteBatch(ps [][]byte, addr net.Addr) (int, error) {
	n, err := c.Socket.WriteBatch(ps, addr)
	for _, p := range ps[:n] {
		c.txBytes.Add(int64(len(p)))
	}
	return n, err
}

// shaper is the viewer's connection in the lossy workload: the viewer's
// own socket, with every datagram it receives held back until the lossy
// leg delivers it (or dropped, duplicated, reordered, corrupted as the leg
// says). Writes (the viewer's feedback) pass straight through. It runs on
// the viewer session's read goroutine: ReadBatch reads the socket with a
// deadline at the next due delivery, so no goroutine of its own is needed.
type shaper struct {
	*countingConn
	leg   *lossyLeg
	start time.Time
	in    []udpio.Message

	// mu orders the session's SetReadDeadline against ReadBatch arming
	// the socket deadline for the next delivery, so a Close poke is never
	// overwritten by a later, farther deadline.
	mu       sync.Mutex
	deadline time.Time // the session's own read deadline
	q        pending
	nextID   uint64
}

func newShaper(s *countingConn, leg *lossyLeg) *shaper {
	sh := &shaper{countingConn: s, leg: leg, start: time.Now(), in: make([]udpio.Message, udpio.DefaultBatch)}
	for i := range sh.in {
		sh.in[i].Buf = make([]byte, 2048)
	}
	return sh
}

func (s *shaper) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deadline = t
	return s.Socket.SetReadDeadline(t)
}

func (s *shaper) SetDeadline(t time.Time) error { return s.SetReadDeadline(t) }

func (s *shaper) ReadFrom(b []byte) (int, net.Addr, error) {
	ms := []udpio.Message{{Buf: b}}
	if _, err := s.ReadBatch(ms); err != nil {
		return 0, nil, err
	}
	return ms[0].N, nil, nil
}

// ReadBatch returns the deliveries that are due, waiting on the socket
// for new datagrams until the next one is.
func (s *shaper) ReadBatch(ms []udpio.Message) (int, error) {
	for {
		now := time.Now()
		if n := s.popDue(ms, now); n > 0 {
			return n, nil
		}
		s.mu.Lock()
		dl := s.deadline
		if !dl.IsZero() && !now.Before(dl) {
			s.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		if len(s.q) > 0 {
			if next := s.start.Add(time.Duration(s.q[0].at * float64(time.Second))); dl.IsZero() || next.Before(dl) {
				dl = next
			}
		}
		err := s.Socket.SetReadDeadline(dl)
		s.mu.Unlock()
		if err != nil {
			return 0, err
		}
		got, err := s.countingConn.ReadBatch(s.in)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return 0, err
		}
		t := time.Since(s.start).Seconds()
		for j := 0; j < got; j++ {
			for _, d := range s.leg.pass(t, s.in[j].Buf[:s.in[j].N]) {
				s.nextID++
				heap.Push(&s.q, held{at: d.at, id: s.nextID, b: append([]byte(nil), d.payload...)})
			}
		}
	}
}

func (s *shaper) popDue(ms []udpio.Message, now time.Time) int {
	t := now.Sub(s.start).Seconds()
	n := 0
	for n < len(ms) && len(s.q) > 0 && s.q[0].at <= t {
		h := heap.Pop(&s.q).(held)
		ms[n].N = copy(ms[n].Buf, h.b)
		ms[n].Addr = nil
		n++
	}
	return n
}

// held is a datagram waiting for its delivery time; id keeps datagrams
// due at the same instant in arrival order.
type held struct {
	at float64
	id uint64
	b  []byte
}

type pending []held

func (p pending) Len() int { return len(p) }
func (p pending) Less(i, j int) bool {
	if p[i].at != p[j].at {
		return p[i].at < p[j].at
	}
	return p[i].id < p[j].id
}
func (p pending) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pending) Push(x any)   { *p = append(*p, x.(held)) }
func (p *pending) Pop() any {
	old := *p
	h := old[len(old)-1]
	*p = old[:len(old)-1]
	return h
}
