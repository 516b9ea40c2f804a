//go:build linux && (amd64 || arm64)

package udpio

import (
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

const batchSupported = true

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-filled per-message byte count. The trailing pad keeps the array
// stride at 64 bytes on both amd64 and arm64 (msghdr is 56 bytes).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// osSocket holds the platform batching scratch: a single-reader recvmmsg
// arena plus a pool of sendmmsg arenas (writer workers call WriteBatch
// concurrently).
type osSocket struct {
	recv recvScratch
	send sync.Pool // *sendScratch
}

// recvScratch is the recvmmsg arena: headers, iovecs, raw sockaddr
// storage, and reusable net.UDPAddrs with per-slot IP backing arrays.
// Message.Addr points here, which is why it is only valid until the next
// ReadBatch — and why ReadBatch is single-goroutine per socket.
//
// The RawConn.Read callback and its in/out state (n in; got, err out) live
// here too, bound once per socket: a closure built per call would escape
// to the heap, with its captured locals, on every syscall.
type recvScratch struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6 // large enough for v4 and v6
	addrs []net.UDPAddr
	ips   [][16]byte

	fn     func(fd uintptr) bool
	n, got int
	err    error
}

// sendScratch is one sendmmsg arena. Like recvScratch it carries its
// RawConn.Write callback and that callback's state (the chunk [0, n) to
// send; done and err out), bound once when the pool creates it.
type sendScratch struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sa4  syscall.RawSockaddrInet4
	sa6  syscall.RawSockaddrInet6

	fn      func(fd uintptr) bool
	n, done int
	err     error
}

func (s *Socket) initOS() {
	b := s.batch
	rs := &s.os.recv
	rs.hdrs = make([]mmsghdr, b)
	rs.iovs = make([]syscall.Iovec, b)
	rs.names = make([]syscall.RawSockaddrInet6, b)
	rs.addrs = make([]net.UDPAddr, b)
	rs.ips = make([][16]byte, b)
	rs.fn = func(fd uintptr) bool { return s.recvmmsg(fd, rs) }
	s.os.send.New = func() any {
		st := &sendScratch{hdrs: make([]mmsghdr, b), iovs: make([]syscall.Iovec, b)}
		st.fn = func(fd uintptr) bool { return s.sendmmsg(fd, st) }
		return st
	}
}

// recvmmsg is the RawConn.Read callback: one recvmmsg for st.n slots,
// retried on EINTR. It returns false on EAGAIN so the runtime poller parks
// the caller until readable (or deadline/close), exactly like ReadFrom.
func (s *Socket) recvmmsg(fd uintptr, st *recvScratch) bool {
	for {
		r1, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&st.hdrs[0])), uintptr(st.n), 0, 0, 0)
		s.readSyscalls.Add(1)
		switch errno {
		case 0:
			st.got = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			st.err = errno
			return true
		}
	}
}

// sendmmsg is the RawConn.Write callback: sendmmsg until headers
// [st.done, st.n) have all reached the kernel, parking on EAGAIN.
func (s *Socket) sendmmsg(fd uintptr, st *sendScratch) bool {
	for st.done < st.n {
		r1, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&st.hdrs[st.done])), uintptr(st.n-st.done), 0, 0, 0)
		s.writeSyscalls.Add(1)
		switch errno {
		case 0:
			if r1 == 0 {
				st.err = syscall.EIO
				return true
			}
			st.done += int(r1)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			st.err = errno
			return true
		}
	}
	return true
}

// ntohs / htons swap a uint16 between wire (big-endian) and host order;
// raw sockaddr ports are stored in network byte order.
func ntohs(v uint16) int { return int(v>>8 | v<<8) }
func htons(p int) uint16 { v := uint16(p); return v>>8 | v<<8 }

// recvBatch fills message slots with one recvmmsg per kernel visit.
func (s *Socket) recvBatch(ms []Message) (int, error) {
	st := &s.os.recv
	n := len(ms)
	if n > s.batch {
		n = s.batch
	}
	for i := 0; i < n; i++ {
		b := ms[i].Buf
		iov := &st.iovs[i]
		if len(b) > 0 {
			iov.Base = &b[0]
		} else {
			iov.Base = nil
		}
		iov.Len = uint64(len(b))
		h := &st.hdrs[i]
		h.hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.names[i])),
			Namelen: uint32(unsafe.Sizeof(st.names[i])),
			Iov:     iov,
			Iovlen:  1,
		}
		h.n = 0
	}
	st.n, st.got, st.err = n, 0, nil
	err := s.rc.Read(st.fn)
	runtime.KeepAlive(ms)
	if err != nil {
		return 0, err
	}
	if st.err != nil {
		return 0, st.err
	}
	got := st.got
	for i := 0; i < got; i++ {
		h := &st.hdrs[i]
		if h.hdr.Flags&syscall.MSG_TRUNC != 0 {
			// The datagram exceeded the slot's buffer: drop it (N = 0,
			// callers skip) rather than forward a corrupt prefix. Valid
			// LiVo wire packets never exceed the pool class size.
			s.truncated.Add(1)
			ms[i].N, ms[i].Addr = 0, nil
			continue
		}
		ms[i].N = int(h.n)
		ms[i].Addr = st.sockaddrAt(i)
	}
	s.readPkts.Add(int64(got))
	return got, nil
}

// sockaddrAt decodes the raw sockaddr the kernel wrote for slot i into
// the slot's reusable net.UDPAddr (no allocation).
func (st *recvScratch) sockaddrAt(i int) *net.UDPAddr {
	a := &st.addrs[i]
	raw := &st.names[i]
	switch raw.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(raw))
		ip := st.ips[i][:4]
		copy(ip, sa.Addr[:])
		a.IP, a.Port, a.Zone = ip, ntohs(sa.Port), ""
	case syscall.AF_INET6:
		ip := st.ips[i][:16]
		copy(ip, raw.Addr[:])
		// Scope ids are left unresolved (mapping to an interface name
		// allocates); the relay keys subscribers on IP:port.
		a.IP, a.Port, a.Zone = ip, ntohs(raw.Port), ""
	default:
		a.IP, a.Port, a.Zone = nil, 0, ""
	}
	return a
}

// sendBatch sends ps to one destination, one sendmmsg per batch-sized
// chunk. All-or-prefix: on error, exactly the returned count reached the
// kernel. Addresses the fast path can't encode without allocating
// (non-UDP, zoned v6) fall back to the per-packet loop.
func (s *Socket) sendBatch(ps [][]byte, addr net.Addr) (int, error) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok || ua.Zone != "" {
		return s.writeSeq(ps, addr)
	}
	st := s.os.send.Get().(*sendScratch)
	defer s.os.send.Put(st)
	var name unsafe.Pointer
	var nameLen uint32
	if ip4 := ua.IP.To4(); ip4 != nil {
		sa := &st.sa4
		sa.Family = syscall.AF_INET
		sa.Port = htons(ua.Port)
		copy(sa.Addr[:], ip4)
		name, nameLen = unsafe.Pointer(sa), syscall.SizeofSockaddrInet4
	} else if ip16 := ua.IP.To16(); ip16 != nil {
		sa := &st.sa6
		sa.Family = syscall.AF_INET6
		sa.Port = htons(ua.Port)
		copy(sa.Addr[:], ip16)
		name, nameLen = unsafe.Pointer(sa), syscall.SizeofSockaddrInet6
	} else {
		return s.writeSeq(ps, addr)
	}

	sent := 0
	for sent < len(ps) {
		n := len(ps) - sent
		if n > s.batch {
			n = s.batch
		}
		for i := 0; i < n; i++ {
			p := ps[sent+i]
			iov := &st.iovs[i]
			if len(p) > 0 {
				iov.Base = &p[0]
			} else {
				iov.Base = nil
			}
			iov.Len = uint64(len(p))
			h := &st.hdrs[i]
			h.hdr = syscall.Msghdr{
				Name:    (*byte)(name),
				Namelen: nameLen,
				Iov:     iov,
				Iovlen:  1,
			}
			h.n = 0
		}
		st.n, st.done, st.err = n, 0, nil
		err := s.rc.Write(st.fn)
		runtime.KeepAlive(ps)
		done, opErr := st.done, st.err
		s.writePkts.Add(int64(done))
		sent += done
		if err != nil && opErr == nil {
			opErr = err
		}
		if opErr != nil {
			return sent, opErr
		}
	}
	return sent, nil
}
