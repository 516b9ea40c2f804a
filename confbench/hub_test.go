package main

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"livo/internal/udpio"
)

func TestAliasAddrRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 254, 255, 256, maxSubs - 1} {
		a := aliasAddr(i, 9)
		got, ok := aliasIndex(a.Addr().As4())
		if !ok || got != i {
			t.Errorf("aliasIndex(aliasAddr(%d)) = %d, %v", i, got, ok)
		}
	}
	for _, a := range [][4]byte{{127, 0, 0, 1}, {127, 1, 0, 0}, {10, 1, 0, 1}} {
		if i, ok := aliasIndex(a); ok {
			t.Errorf("aliasIndex(%v) = %d, want no subscriber", a, i)
		}
	}
}

type got struct {
	sub  int
	data string
}

// TestHubDemuxAndPerAddressSend drives a hub from a plain socket: each
// datagram sent to a subscriber's alias address must reach that
// subscriber, and each subscriber's writes must leave from its own
// address.
func TestHubDemuxAndPerAddressSend(t *testing.T) {
	var mu sync.Mutex
	var seen []got
	arrived := make(chan struct{}, 16)
	h, err := listenHub(3, 0, func(sub int, b []byte, now int64) {
		mu.Lock()
		seen = append(seen, got{sub, string(b)})
		mu.Unlock()
		arrived <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	for i := 2; i >= 0; i-- {
		if _, err := peer.WriteToUDPAddrPort([]byte{'a' + byte(i)}, aliasAddr(i, h.port)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-arrived:
		case <-time.After(2 * time.Second):
			t.Fatalf("datagram for subscriber %d never reached the hub", i)
		}
	}
	mu.Lock()
	for _, g := range seen {
		if g.data != string(rune('a'+g.sub)) {
			t.Errorf("subscriber %d got %q", g.sub, g.data)
		}
	}
	if len(seen) != 3 {
		t.Errorf("got %d datagrams, want 3", len(seen))
	}
	mu.Unlock()

	peerAP := peer.LocalAddr().(*net.UDPAddr).AddrPort()
	buf := make([]byte, 16)
	for i := 0; i < 3; i++ {
		if err := h.sendFrom(i, []byte("remb"), peerAP); err != nil {
			t.Fatal(err)
		}
		peer.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, from, err := peer.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := aliasAddr(i, h.port); from != want {
			t.Errorf("subscriber %d's write came from %v, want %v", i, from, want)
		}
	}
}

// TestAliasConnBatchesAndUnblocks checks the viewer side: queued datagrams
// come back as one batch, writes leave from the viewer's address, and a
// past read deadline (what a session's Close sets) unblocks a waiting
// ReadBatch with a timeout.
func TestAliasConnBatchesAndUnblocks(t *testing.T) {
	h, err := listenHub(1, 1, func(sub int, b []byte, now int64) {
		t.Errorf("datagram for viewer %d reached the sink callback", sub)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	c := h.viewers[0]
	var _ udpio.BatchReader = c

	peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for _, p := range []string{"x", "y"} {
		if _, err := peer.WriteToUDPAddrPort([]byte(p), aliasAddr(0, h.port)); err != nil {
			t.Fatal(err)
		}
	}
	ms := make([]udpio.Message, 4)
	for i := range ms {
		ms[i].Buf = make([]byte, 16)
	}
	var out []string
	for len(out) < 2 {
		n, err := c.ReadBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			out = append(out, string(ms[i].Buf[:ms[i].N]))
		}
	}
	if out[0] != "x" || out[1] != "y" {
		t.Errorf("read %q, want [x y]", out)
	}

	if _, err := c.WriteTo([]byte("fb"), peer.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, from, err := peer.ReadFromUDPAddrPort(buf); err != nil || from != aliasAddr(0, h.port) {
		t.Errorf("viewer write: from %v, err %v", from, err)
	}

	// Whether the deadline lands before or during the read, the read must
	// end with a timeout.
	done := make(chan error, 1)
	go func() {
		_, err := c.ReadBatch(ms)
		done <- err
	}()
	c.SetReadDeadline(time.Now())
	select {
	case err := <-done:
		var ne net.Error
		if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("unblocked read returned %v, want a timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a past read deadline did not unblock ReadBatch")
	}
}
