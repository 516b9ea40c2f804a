package main

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"livo/internal/udpio"
)

// legRun drives a lossy leg with a fixed packet schedule: 1000-byte
// datagrams with distinct contents at 400 packets/s.
func legRun(seed int64, n int) []delivery {
	leg := newLossyLeg(seed, accessBps/1e6)
	rng := rand.New(rand.NewSource(99))
	var out []delivery
	for i := 0; i < n; i++ {
		b := make([]byte, 1000)
		rng.Read(b)
		for _, d := range leg.pass(float64(i)/400, b) {
			out = append(out, delivery{at: d.at, payload: append([]byte(nil), d.payload...)})
		}
	}
	return out
}

func sameDeliveries(a, b []delivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].at != b[i].at || !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}

// TestLossyLegDeterministic checks that the seed alone fixes the leg's
// schedule, that another seed gives another schedule, and that the faults
// are actually exercised.
func TestLossyLegDeterministic(t *testing.T) {
	const n = 4000
	a, b := legRun(7, n), legRun(7, n)
	if !sameDeliveries(a, b) {
		t.Fatal("same seed, different deliveries")
	}
	if sameDeliveries(a, legRun(8, n)) {
		t.Error("different seeds, same deliveries")
	}
	leg := newLossyLeg(7, accessBps/1e6)
	for i := 0; i < n; i++ {
		leg.pass(float64(i)/400, make([]byte, 1000))
	}
	c := leg.chaos
	if c.Dropped() == 0 || c.Duplicated() == 0 || c.Reordered() == 0 || c.Flipped() == 0 {
		t.Errorf("faults not exercised: dropped %d dup %d reordered %d flipped %d",
			c.Dropped(), c.Duplicated(), c.Reordered(), c.Flipped())
	}
	if len(a) >= n {
		t.Errorf("%d deliveries from %d datagrams: nothing was lost", len(a), n)
	}
}

// TestShaperHoldsAndUnblocks sends datagrams through a shaper over real
// sockets: they come out no earlier than the link delay, and a past read
// deadline ends a blocked read with a timeout.
func TestShaperHoldsAndUnblocks(t *testing.T) {
	sock, err := udpio.Listen("udp", "127.0.0.1:0", udpio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	leg := newLossyLeg(1, 1000) // a fast link: little more than propagation delay
	sh := newShaper(&countingConn{Socket: sock}, leg)
	peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	sent := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := peer.WriteTo([]byte{byte(i)}, sock.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	ms := make([]udpio.Message, 8)
	for i := range ms {
		ms[i].Buf = make([]byte, 64)
	}
	sh.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := sh.ReadBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no datagram delivered")
	}
	if d := time.Since(sent); d < time.Duration(leg.link.PropDelay*float64(time.Second)) {
		t.Errorf("delivered after %v, before the link's %v propagation delay", d, leg.link.PropDelay)
	}
	if got := sh.rxBytes.Load(); got == 0 {
		t.Error("received bytes not counted")
	}

	done := make(chan error, 1)
	go func() {
		for {
			if _, err := sh.ReadBatch(ms); err != nil {
				done <- err
				return
			}
		}
	}()
	sh.SetReadDeadline(time.Now())
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("unblocked read returned %v, want a deadline error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a past read deadline did not unblock ReadBatch")
	}
}

// TestLossyLegTraceWindow checks the stretch of trace-2 every conference
// replays: the first seconds, where set-up is timed, run near the mean,
// and the dips 5, 13 and 20 s in are there.
func TestLossyLegTraceWindow(t *testing.T) {
	tr := newLossyLeg(1, accessBps/1e6).link.Trace
	mean := accessBps / 1e6
	for s := 0.0; s < 5; s++ {
		if v := tr.At(s + 0.5); v < 0.9*mean {
			t.Errorf("second %g: %.2f Mbit/s, want the first seconds near the %.1f mean", s, v, mean)
		}
	}
	for _, s := range []float64{5, 13, 20} {
		if v := tr.At(s + 0.5); v > 0.65*mean {
			t.Errorf("second %g: %.2f Mbit/s, want a dip", s, v)
		}
	}
}

// TestCountingConnCountsWrites checks that the sender socket's wrapper
// counts the bytes WriteTo and WriteBatch put on the wire.
func TestCountingConnCountsWrites(t *testing.T) {
	a, err := udpio.Listen("udp", "127.0.0.1:0", udpio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := udpio.Listen("udp", "127.0.0.1:0", udpio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := &countingConn{Socket: a}
	if _, err := c.WriteTo(make([]byte, 100), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteBatch([][]byte{make([]byte, 200), make([]byte, 300)}, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := c.txBytes.Load(); got != 600 {
		t.Errorf("counted %d bytes written, want 600", got)
	}
}
