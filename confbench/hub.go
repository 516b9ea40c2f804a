package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"livo/internal/udpio"
)

// hub is the generator's one viewer socket in a fan-out. Bound to the
// wildcard address, it receives for every subscriber address
// 127.1.x.y:port at once (the whole 127.0.0.0/8 block is local), tells the
// subscribers apart by the IP_PKTINFO destination address, and sends each
// subscriber's feedback from that subscriber's own address, so the relay
// sees ~100 distinct peers behind one socket. The first subscribers are
// decoding viewers, each reading through its aliasConn; the rest are
// handed to a callback.
type hub struct {
	conn    *net.UDPConn
	port    uint16
	viewers []*aliasConn
	// deliver receives every datagram for a subscriber that is not a
	// viewer, on the demux goroutine; b is only valid for the call.
	deliver func(sub int, b []byte, now int64)
	oobs    [][]byte // per subscriber: the control message that sets its source address
	// rxBytes counts each subscriber's bytes; the demux goroutine owns it
	// until close returns.
	rxBytes []int64
	stray   atomic.Int64 // datagrams for no known subscriber
	done    chan struct{}
	err     atomic.Value
}

// maxSubs bounds the alias block (127.1.0.1 onwards).
const maxSubs = 1 << 15

// aliasAddr is subscriber i's address on a hub bound to port.
func aliasAddr(i int, port uint16) netip.AddrPort {
	n := i + 1
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 1, byte(n >> 8), byte(n)}), port)
}

// aliasIndex inverts aliasAddr's address part.
func aliasIndex(a [4]byte) (int, bool) {
	if a[0] != 127 || a[1] != 1 {
		return 0, false
	}
	n := int(a[2])<<8 | int(a[3])
	return n - 1, n > 0 && n <= maxSubs
}

// listenHub opens the socket for subs subscriber addresses, the first
// viewers of them decoding viewers, and starts its demux goroutine; close
// stops it.
func listenHub(subs, viewers int, deliver func(sub int, b []byte, now int64)) (*hub, error) {
	if subs > maxSubs {
		return nil, fmt.Errorf("hub: %d subscribers exceed the %d-address block", subs, maxSubs)
	}
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, err
	}
	rc, err := c.SyscallConn()
	if err != nil {
		c.Close()
		return nil, err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1)
	}); err != nil || serr != nil {
		c.Close()
		return nil, fmt.Errorf("hub: enable IP_PKTINFO: %v %v", err, serr)
	}
	// Every subscriber's media lands in this one queue: ask for the buffer
	// udpio gives its sockets, so a fan-out burst is not dropped here.
	_ = c.SetReadBuffer(udpio.DefaultBufferBytes)
	h := &hub{
		conn:    c,
		port:    uint16(c.LocalAddr().(*net.UDPAddr).Port),
		deliver: deliver,
		rxBytes: make([]int64, subs),
		done:    make(chan struct{}),
	}
	for i := 0; i < subs; i++ {
		h.oobs = append(h.oobs, pktinfoOOB(aliasAddr(i, h.port).Addr().As4()))
	}
	for i := 0; i < viewers; i++ {
		h.viewers = append(h.viewers, newAliasConn(h, i))
	}
	go h.run()
	return h, nil
}

func (h *hub) addr(i int) *net.UDPAddr { return net.UDPAddrFromAddrPort(aliasAddr(i, h.port)) }

func (h *hub) run() {
	defer close(h.done)
	buf := make([]byte, 2048)
	oob := make([]byte, 128)
	for {
		n, oobn, _, _, err := h.conn.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				h.err.Store(err)
			}
			return
		}
		dst, ok := pktinfoDst(oob[:oobn])
		if !ok {
			h.stray.Add(1)
			continue
		}
		i, ok := aliasIndex(dst)
		if !ok || i >= len(h.oobs) {
			h.stray.Add(1)
			continue
		}
		h.rxBytes[i] += int64(n)
		if i < len(h.viewers) {
			h.viewers[i].push(buf[:n])
			continue
		}
		h.deliver(i, buf[:n], time.Now().UnixNano())
	}
}

// Err is the demux loop's read error, if it stopped for one.
func (h *hub) Err() error {
	if err, ok := h.err.Load().(error); ok {
		return err
	}
	return nil
}

// close stops the demux goroutine and waits for it.
func (h *hub) close() {
	h.conn.Close()
	<-h.done
}

// sendFrom writes b to dst with subscriber i's address as the source.
func (h *hub) sendFrom(i int, b []byte, dst netip.AddrPort) error {
	_, _, err := h.conn.WriteMsgUDPAddrPort(b, h.oobs[i], dst)
	return err
}

// pktinfoDst returns the destination address an IP_PKTINFO control message
// reports for a received datagram.
func pktinfoDst(oob []byte) ([4]byte, bool) {
	for len(oob) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(oob) {
			return [4]byte{}, false
		}
		if h.Level == syscall.IPPROTO_IP && h.Type == syscall.IP_PKTINFO &&
			l >= syscall.CmsgLen(syscall.SizeofInet4Pktinfo) {
			pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
			return pi.Addr, true
		}
		sp := syscall.CmsgSpace(l - syscall.CmsgLen(0))
		if sp > len(oob) {
			break
		}
		oob = oob[sp:]
	}
	return [4]byte{}, false
}

// pktinfoOOB builds the IP_PKTINFO control message that makes the kernel
// send a datagram from src.
func pktinfoOOB(src [4]byte) []byte {
	oob := make([]byte, syscall.CmsgSpace(syscall.SizeofInet4Pktinfo))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level = syscall.IPPROTO_IP
	h.Type = syscall.IP_PKTINFO
	h.SetLen(syscall.CmsgLen(syscall.SizeofInet4Pktinfo))
	pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
	pi.Spec_dst = src
	return oob
}

// aliasConn is one decoding viewer's connection on a hub: the demux
// goroutine queues its datagrams, and its writes leave from its own
// address. It implements udpio.BatchReader, so the viewer's RecvSession
// stays on its batched read path.
type aliasConn struct {
	hub   *hub
	sub   int
	inbox chan []byte
	free  chan []byte
	wake  chan struct{}
	// deadline is the read deadline in Unix ns (0 = none); the session
	// sets a past one to unblock its read loop on Close.
	deadline atomic.Int64
	overflow atomic.Int64 // datagrams dropped because the viewer fell a full inbox behind
}

// inboxPackets holds about a second of one viewer's media, the same
// budget as the relay's per-subscriber queue.
const inboxPackets = 1024

func newAliasConn(h *hub, sub int) *aliasConn {
	return &aliasConn{
		hub:   h,
		sub:   sub,
		inbox: make(chan []byte, inboxPackets),
		free:  make(chan []byte, inboxPackets),
		wake:  make(chan struct{}, 1),
	}
}

// push queues a copy of b (demux goroutine only).
func (c *aliasConn) push(b []byte) {
	var p []byte
	select {
	case p = <-c.free:
	default:
		p = make([]byte, 0, 2048)
	}
	p = append(p[:0], b...)
	select {
	case c.inbox <- p:
	default:
		c.overflow.Add(1)
		c.recycle(p)
	}
}

func (c *aliasConn) recycle(p []byte) {
	select {
	case c.free <- p:
	default:
	}
}

func (c *aliasConn) take(m *udpio.Message, p []byte) {
	m.N = copy(m.Buf, p)
	m.Addr = nil
	c.recycle(p)
}

// ReadBatch blocks for at least one datagram and returns every queued one
// that fits in ms.
func (c *aliasConn) ReadBatch(ms []udpio.Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	for {
		var p []byte
		if d := c.deadline.Load(); d != 0 {
			wait := time.Until(time.Unix(0, d))
			if wait <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			t := time.NewTimer(wait)
			select {
			case p = <-c.inbox:
			case <-c.wake:
			case <-t.C:
			}
			t.Stop()
		} else {
			select {
			case p = <-c.inbox:
			case <-c.wake:
			}
		}
		if p == nil {
			continue // deadline changed or passed: re-check it
		}
		c.take(&ms[0], p)
		n := 1
		for n < len(ms) {
			select {
			case p := <-c.inbox:
				c.take(&ms[n], p)
				n++
			default:
				return n, nil
			}
		}
		return n, nil
	}
}

func (c *aliasConn) ReadFrom(b []byte) (int, net.Addr, error) {
	ms := []udpio.Message{{Buf: b}}
	if _, err := c.ReadBatch(ms); err != nil {
		return 0, nil, err
	}
	return ms[0].N, nil, nil
}

func (c *aliasConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, fmt.Errorf("hub: not a UDP address: %v", addr)
	}
	if err := c.hub.sendFrom(c.sub, b, ua.AddrPort()); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *aliasConn) SetReadDeadline(t time.Time) error {
	var d int64
	if !t.IsZero() {
		d = t.UnixNano()
	}
	c.deadline.Store(d)
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return nil
}

func (c *aliasConn) SetDeadline(t time.Time) error      { return c.SetReadDeadline(t) }
func (c *aliasConn) SetWriteDeadline(t time.Time) error { return nil }
func (c *aliasConn) LocalAddr() net.Addr                { return c.hub.addr(c.sub) }

// Close is a no-op: the hub owns the socket.
func (c *aliasConn) Close() error { return nil }
