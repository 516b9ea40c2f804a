package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"livo"
	"livo/internal/frametrace"
	"livo/internal/geom"
	"livo/internal/pointcloud"
	"livo/internal/relaycore"
	"livo/internal/transport"
	"livo/internal/udpio"
)

// conference is one run of a workload through the public system: a
// SendSession on its own socket, a relay group on its own socket at the
// defaults livo-conference -fanout uses, and every subscriber behind the
// generator's one viewer socket. The generator feeds pre-rendered capture
// on an open-loop 30 fps clock and times every frame from its scheduled
// capture instant to the moment it is usable at each subscriber.
type conference struct {
	w      workload
	clip   *clip
	seed   int64
	frames int  // frames the clock schedules
	traced bool // program frametrace ledgers on
	// probe stops the clock once every subscriber has a usable frame: a
	// set-up measurement, not a window.
	probe bool

	poses *livo.UserTrace
	start int64 // first constructor call (Unix ns)
	t0    int64 // scheduled capture of frame 0 (Unix ns)

	senderSock *countingConn
	relaySocks []*udpio.Socket
	viewerSock *countingConn // single-viewer workloads
	hub        *hub          // fan-out
	relay      *livo.Relay
	send       *livo.SendSession
	subs       []*subscriber
	viewers    []*subscriber // the decoding ones
	sendLed    *frametrace.Ledger
	relayLed   *frametrace.Ledger

	captured atomic.Int64 // frames SendViews returned
	ready    atomic.Int64 // subscribers holding a usable frame
	readyAt  atomic.Int64 // when the last of them got its first (Unix ns)

	mu       sync.Mutex
	failures []string

	// Per frame, generator side.
	sendIn, sendOut []int64
	lagMs           []float64
	encs            []encStat
	rateMbps        []float64
	estMbps         []float64
	pendingMax      int
}

type encStat struct {
	colorBytes, depthBytes int
	rungBytes              [3]int
	targetBytes            int
	key                    bool
	split, kept            float64
}

// subscriber is one relay subscriber: a decoding viewer (a RecvSession)
// or a counting sink.
type subscriber struct {
	class int
	addr  net.Addr
	// usable[i] is when capture frame i became usable here (Unix ns; 0 =
	// never): reconstructed at a viewer, or complete at a sink.
	usable    []int64
	concealed []bool // viewers: frame i was shown as a concealment
	hasFirst  atomic.Bool

	sink *sink
	recv *livo.RecvSession
	led  *frametrace.Ledger

	// Viewer callback state (the session goroutine only).
	lastCloud     int64
	lastConcealed int64
	gapsMs        []float64
	samples       map[int]sample
}

// sample is a viewer's cloud for one sampled frame, culled to the viewer's
// frustum at the instant it was shown.
type sample struct {
	cloud   *pointcloud.Cloud
	frustum geom.Frustum
}

func (c *conference) fail(format string, args ...any) {
	c.mu.Lock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *conference) sched(i int) int64 { return c.t0 + int64(i)*int64(time.Second)/fps }

// frameIndex maps a sequence number seen at a subscriber to its capture
// frame; the sender numbers frames from 0 (checked on every SendViews).
func (c *conference) frameIndex(who string, seq uint32) (int, bool) {
	if int64(seq) >= int64(c.frames) {
		c.fail("%s: got frame seq %d, but only %d frames are scheduled", who, seq, c.frames)
		return 0, false
	}
	return int(seq), true
}

func (c *conference) markUsable(s *subscriber, i int, now int64) {
	if s.usable[i] != 0 {
		return
	}
	// Only this subscriber's goroutine writes its slots; drain polls them.
	atomic.StoreInt64(&s.usable[i], now)
	if s.hasFirst.CompareAndSwap(false, true) && c.ready.Add(1) == int64(len(c.subs)) {
		c.readyAt.Store(now)
	}
}

// setup builds the system. Every socket and session it opens is released
// by teardown, which also runs after a failed setup.
func (c *conference) setup() error {
	c.start = time.Now().UnixNano()
	arr := c.clip.video.Array
	ss, err := udpio.Listen("udp", "127.0.0.1:0", udpio.Config{})
	if err != nil {
		return fmt.Errorf("sender socket: %w", err)
	}
	c.senderSock = &countingConn{Socket: ss}
	if c.relaySocks, err = udpio.ListenGroup("udp", "127.0.0.1:0", 1, udpio.Config{}); err != nil {
		return fmt.Errorf("relay sockets: %w", err)
	}
	relayConns := make([]net.PacketConn, len(c.relaySocks))
	for i, s := range c.relaySocks {
		relayConns[i] = s
	}
	rcfg := relaycore.Config{}
	if c.traced {
		c.sendLed = frametrace.NewLedger("sender", 8*c.frames)
		// Per frame: ingest per stream and rung, then route, enqueue and
		// drain per subscriber and stream.
		c.relayLed = frametrace.NewLedger("relay", c.frames*(16+8*c.nsubs()))
		rcfg.Trace = c.relayLed
	}
	c.relay = livo.NewRelayGroup(relayConns, c.senderSock.LocalAddr(), rcfg)
	relayAddr := c.relaySocks[0].LocalAddr()

	if err := c.addSubscribers(relayAddr); err != nil {
		return err
	}
	for _, s := range c.subs {
		c.relay.Subscribe(s.addr)
	}
	go c.relay.Run()

	c.send, err = livo.NewSendSession(c.senderSock, relayAddr, livo.SendSessionConfig{
		Sender: livo.SenderConfig{
			Variant:    c.w.variant,
			Array:      arr,
			ViewParams: livo.DefaultViewParams(),
			Ladder:     c.w.ladder,
			Trace:      c.sendLed,
		},
		FPS: fps,
	})
	if err != nil {
		return fmt.Errorf("send session: %w", err)
	}
	return nil
}

func (c *conference) nsubs() int {
	if c.w.subsPerClass > 0 {
		return c.w.subsPerClass * len(fanoutClasses)
	}
	return 1
}

// addSubscribers creates the subscribers and starts the decoding viewers'
// sessions. In a fan-out, subscriber k is in class k%3, so the first three
// (one decoding viewer per class, the fast one first and so the relay's
// primary) lead and the sinks interleave.
func (c *conference) addSubscribers(relayAddr net.Addr) error {
	n := c.nsubs()
	for k := 0; k < n; k++ {
		s := &subscriber{class: k % len(fanoutClasses), usable: make([]int64, c.frames)}
		if k < c.w.decodingViewers() {
			s.concealed = make([]bool, c.frames)
			s.samples = map[int]sample{}
		} else {
			s.sink = &sink{}
		}
		c.subs = append(c.subs, s)
	}
	var conns []net.PacketConn
	if c.w.subsPerClass > 0 {
		h, err := listenHub(n, c.w.decodingViewers(), c.deliver)
		if err != nil {
			return err
		}
		c.hub = h
		for k, s := range c.subs {
			s.addr = h.addr(k)
		}
		for _, v := range h.viewers {
			conns = append(conns, v)
		}
	} else {
		sock, err := udpio.Listen("udp", "127.0.0.1:0", udpio.Config{})
		if err != nil {
			return fmt.Errorf("viewer socket: %w", err)
		}
		c.viewerSock = &countingConn{Socket: sock}
		c.subs[0].addr = sock.LocalAddr()
		var conn net.PacketConn = c.viewerSock
		if c.w.lossy {
			conn = newShaper(c.viewerSock, newLossyLeg(c.seed, accessBps/1e6))
		}
		conns = append(conns, conn)
	}
	for k, conn := range conns {
		s := c.subs[k]
		cfg := livo.RecvSessionConfig{
			Receiver:    livo.ReceiverConfig{Array: c.clip.video.Array},
			JitterDelay: jitterS,
		}
		if c.w.subsPerClass > 0 {
			// A fan-out viewer advertises its class's estimate, not what
			// loopback would measure.
			bps := fanoutClasses[s.class].bps
			cfg.InitialRateBps, cfg.MinRateBps, cfg.MaxRateBps = bps, bps, bps
		} else {
			cfg.InitialRateBps, cfg.MaxRateBps = accessBps, accessBps
		}
		if c.traced && k == 0 {
			s.led = frametrace.NewLedger("viewer", 8*c.frames)
			cfg.Receiver.Trace = s.led
		}
		r, err := livo.NewRecvSession(conn, relayAddr, cfg)
		if err != nil {
			return fmt.Errorf("recv session: %w", err)
		}
		s.recv = r
		c.viewers = append(c.viewers, s)
		r.OnCloud = func(seq uint32, cloud *livo.PointCloud) { c.onCloud(s, seq, cloud) }
		if c.w.poses {
			r.PoseSource = func() livo.Pose { return c.poses.At(c.elapsed()) }
		}
		go r.Run()
	}
	return nil
}

// elapsed is the viewer's clock: seconds since the first scheduled capture.
func (c *conference) elapsed() float64 {
	t0 := atomic.LoadInt64(&c.t0)
	if t0 == 0 {
		return 0
	}
	return float64(time.Now().UnixNano()-t0) / 1e9
}

// onCloud runs on a viewer's session goroutine for every cloud it shows.
func (c *conference) onCloud(s *subscriber, seq uint32, cloud *livo.PointCloud) {
	now := time.Now().UnixNano()
	n := s.recv.Concealed()
	concealed := n != s.lastConcealed
	s.lastConcealed = n
	i, ok := c.frameIndex("viewer", seq)
	if !ok {
		return
	}
	if s.lastCloud != 0 {
		s.gapsMs = append(s.gapsMs, float64(now-s.lastCloud)/1e6)
	}
	s.lastCloud = now
	if concealed {
		s.concealed[i] = true
	} else {
		c.markUsable(s, i, now)
	}
	if c.probe || i%c.w.sampleSpacing() != 0 {
		return
	}
	if _, dup := s.samples[i]; !dup {
		f := livo.NewFrustum(c.poses.At(c.elapsed()), livo.DefaultViewParams())
		s.samples[i] = sample{cloud: cloud.CullFrustum(f), frustum: f}
	}
}

// deliver takes one datagram for a counting sink from the hub (its demux
// goroutine).
func (c *conference) deliver(k int, b []byte, now int64) {
	s := c.subs[k]
	a, ok := s.sink.observe(b)
	if !ok {
		return
	}
	i, ok := c.frameIndex("sink", a.seq)
	if !ok {
		return
	}
	if a.complete {
		c.markUsable(s, i, now)
	}
}

// clock feeds the capture on the open-loop schedule until the frames run
// out (or, probing, until every subscriber has a usable frame).
func (c *conference) clock() {
	var rembs [][]byte
	for _, cl := range fanoutClasses {
		rembs = append(rembs, transport.AppendREMB(nil, cl.bps))
	}
	relayAP := c.relaySocks[0].LocalAddr().(*net.UDPAddr).AddrPort()
	atomic.StoreInt64(&c.t0, time.Now().UnixNano())
	prevOut := c.t0
	for i := 0; i < c.frames; i++ {
		due := c.sched(i)
		if d := due - time.Now().UnixNano(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		woke := time.Now().UnixNano()
		// The generator is late only past the later of the schedule and
		// the previous SendViews return: a slow SendViews is the system's.
		c.lagMs = append(c.lagMs, float64(woke-max(due, prevOut))/1e6)
		enc, err := c.send.SendViews(c.clip.frame(i))
		out := time.Now().UnixNano()
		prevOut = out
		if err != nil {
			c.fail("SendViews frame %d: %v", i, err)
			return
		}
		if enc.Seq != uint32(i) {
			c.fail("SendViews frame %d returned seq %d", i, enc.Seq)
			return
		}
		c.captured.Store(int64(i + 1))
		c.sendIn, c.sendOut = append(c.sendIn, woke), append(c.sendOut, out)
		c.encs = append(c.encs, statOf(enc))
		c.rateMbps = append(c.rateMbps, c.send.Rate()/1e6)
		for _, v := range c.viewers {
			st := v.recv.Stats()
			c.estMbps = append(c.estMbps, st.EstRateBps/1e6)
			c.pendingMax = max(c.pendingMax, st.Color.Pending, st.Depth.Pending)
		}
		if c.hub != nil {
			// Each sink re-advertises its class estimate every third frame
			// (100 ms), from its own address.
			for k, s := range c.subs {
				if s.sink != nil && k%3 == i%3 {
					if err := c.hub.sendFrom(k, rembs[s.class], relayAP); err != nil {
						c.fail("sink %d REMB: %v", k, err)
						return
					}
				}
			}
		}
		if c.probe && c.readyAt.Load() != 0 {
			return
		}
	}
}

func statOf(enc *livo.EncodedFrame) encStat {
	st := encStat{
		colorBytes:  enc.Color.SizeBytes(),
		depthBytes:  enc.Depth.SizeBytes(),
		targetBytes: enc.TargetBytes,
		key:         enc.Color.Key,
		split:       enc.Split,
		kept:        enc.CullStats.KeptFraction(),
	}
	for r := range st.rungBytes {
		if r < len(enc.ColorRungs) {
			st.rungBytes[r] += enc.ColorRungs[r].SizeBytes()
		}
		if r < len(enc.DepthRungs) {
			st.rungBytes[r] += enc.DepthRungs[r].SizeBytes()
		}
	}
	return st
}

// drain waits for the last frame to be usable everywhere, or until it can
// no longer be on time.
func (c *conference) drain() {
	n := int(c.captured.Load())
	if n == 0 {
		return
	}
	deadline := c.sched(n-1) + int64(2*onTimeMs)*int64(time.Millisecond)
	for time.Now().UnixNano() < deadline {
		all := true
		for _, s := range c.subs {
			if atomic.LoadInt64(&s.usable[n-1]) == 0 {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkErrs records every asynchronous error the system reports.
func (c *conference) checkErrs() {
	if c.send != nil {
		if err := c.send.Err(); err != nil {
			c.fail("send session: %v", err)
		}
	}
	for _, v := range c.viewers {
		if err := v.recv.Err(); err != nil {
			c.fail("recv session: %v", err)
		}
	}
	if c.relay != nil {
		if err := c.relay.Err(); err != nil {
			c.fail("relay: %v", err)
		}
	}
	if c.hub != nil {
		if err := c.hub.Err(); err != nil {
			c.fail("viewer socket: %v", err)
		}
	}
}

// teardown stops everything setup started, in dependency order, and checks
// that the relay released every pooled buffer.
func (c *conference) teardown() {
	for _, v := range c.viewers {
		v.recv.Close()
	}
	if c.send != nil {
		c.send.Close()
	}
	if c.relay != nil {
		c.relay.Close()
		if live := c.relay.Stats().PoolLive; live != 0 {
			c.fail("relay: %d pooled buffers still live after Close", live)
		}
	}
	if c.hub != nil {
		c.hub.close()
	}
	if c.senderSock != nil {
		c.senderSock.Close()
	}
	if c.viewerSock != nil {
		c.viewerSock.Close()
	}
	for _, s := range c.relaySocks {
		s.Close()
	}
}

// window is what a measured run leaves behind for the metrics.
type window struct {
	seconds   float64
	cpuUser   time.Duration
	cpuSys    time.Duration
	mallocs   uint64
	gcs       uint32
	gcPauseMs []float64
	heapLive  float64 // bytes, at window end after a forced GC
	rcvbufErr int64
	rcvbufOK  bool

	send       livo.SendStats
	recv       []livo.RecvStats
	relay      relaycore.Stats
	wire       udpio.SocketStats
	sendWire   udpio.SocketStats
	truncated  int64
	txBytes    int64 // bytes the sender wrote
	rxBytes    int64 // relay→subscriber bytes, all subscribers
	inboxDrops int64
	stray      int64
}

// run executes the conference: setup, the clock, the drain, a snapshot of
// every counter, and teardown. For a probe it returns once set-up is done.
func (c *conference) run() (*window, error) {
	c.poses = livo.SynthUserTrace("viewer", c.seed, float64(c.frames)/fps+60, fps)
	err := c.setup()
	if err != nil {
		c.teardown()
		return nil, err
	}
	u0, s0 := cpuTimes()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rb0, rbOK0 := udpRcvbufErrors()

	c.clock()
	if c.probe {
		c.checkErrs()
		c.teardown()
		if c.readyAt.Load() == 0 {
			c.fail("set-up: %d of %d subscribers had a usable frame after %d frames", c.ready.Load(), len(c.subs), c.frames)
		}
		return nil, nil
	}
	c.drain()

	w := &window{seconds: float64(time.Now().UnixNano()-c.t0) / 1e9}
	u1, s1 := cpuTimes()
	w.cpuUser, w.cpuSys = u1-u0, s1-s0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.gcs = m1.NumGC - m0.NumGC
	for g := m0.NumGC + 1; g <= m1.NumGC && m1.NumGC-g < 256; g++ {
		w.gcPauseMs = append(w.gcPauseMs, float64(m1.PauseNs[(g+255)%256])/1e6)
	}
	rb1, rbOK1 := udpRcvbufErrors()
	w.rcvbufErr, w.rcvbufOK = rb1-rb0, rbOK0 && rbOK1

	w.send = c.send.Stats()
	for _, v := range c.viewers {
		w.recv = append(w.recv, v.recv.Stats())
	}
	w.relay = c.relay.Stats()
	w.wire = c.relay.WireStats()
	w.sendWire = c.senderSock.Stats()
	w.txBytes = c.senderSock.txBytes.Load()
	w.truncated = w.wire.Truncated + w.sendWire.Truncated
	if c.viewerSock != nil {
		w.truncated += c.viewerSock.Stats().Truncated
		w.rxBytes = c.viewerSock.rxBytes.Load()
	}
	if c.hub != nil {
		for _, v := range c.hub.viewers {
			w.inboxDrops += v.overflow.Load()
		}
	}
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	w.heapLive = float64(m2.HeapAlloc) - float64(c.clip.bytes) - c.benchHeld()

	c.checkErrs()
	c.teardown()
	if c.hub != nil {
		// The demux goroutine has exited: its counters are final.
		w.stray = c.hub.stray.Load()
		for _, b := range c.hub.rxBytes {
			w.rxBytes += b
		}
	}
	n := int(c.captured.Load())
	for _, s := range c.subs {
		for i := n; i < len(s.usable); i++ {
			if s.usable[i] != 0 || (s.concealed != nil && s.concealed[i]) {
				c.fail("subscriber %v showed frame %d, which was never captured", s.addr, i)
			}
		}
		if s.sink != nil && s.sink.offKeySwitches > 0 {
			c.fail("subscriber %v: %d rung changes on non-key frames", s.addr, s.sink.offKeySwitches)
		}
	}
	if c.readyAt.Load() == 0 {
		c.fail("%d of %d subscribers never had a usable frame", len(c.subs)-int(c.ready.Load()), len(c.subs))
	}
	return w, nil
}

// benchHeld is the heap the benchmark itself holds at window end: the
// sampled clouds and the per-frame bookkeeping.
func (c *conference) benchHeld() float64 {
	var b int
	for _, s := range c.subs {
		b += 8*cap(s.usable) + cap(s.concealed) + 8*cap(s.gapsMs)
		for _, sm := range s.samples {
			b += 24*cap(sm.cloud.Positions) + 3*cap(sm.cloud.Colors)
		}
	}
	b += 8 * (cap(c.sendIn) + cap(c.sendOut) + cap(c.lagMs) + cap(c.rateMbps) + cap(c.estMbps))
	b += 64 * cap(c.encs)
	return float64(b)
}
