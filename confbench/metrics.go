package main

import (
	"fmt"
	"strings"
)

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects a run's metrics by name.
type results map[string]metric

func (r results) set(name, unit string, v float64) { r[name] = metric{Value: v, Unit: unit} }

// latencies returns every usable (not concealed) frame's latency in ms,
// over all subscribers, and how many of them met the on-time limit.
func (c *conference) latencies(subs []*subscriber) (lat []float64, onTime int) {
	n := int(c.captured.Load())
	for _, s := range subs {
		for i := 0; i < n; i++ {
			if s.usable[i] == 0 || (s.concealed != nil && s.concealed[i]) {
				continue
			}
			ms := float64(s.usable[i]-c.sched(i)) / 1e6
			lat = append(lat, ms)
			if ms <= onTimeMs {
				onTime++
			}
		}
	}
	return lat, onTime
}

// onTimeRatio is usable on-time frames over frames captured times
// subscribers: concealed and lost frames are misses.
func (c *conference) onTimeRatio(subs []*subscriber) float64 {
	_, ok := c.latencies(subs)
	return ratio(float64(ok), float64(int(c.captured.Load())*len(subs)))
}

// endToEnd fills the metrics a conference user sees (all but setup_s).
func (c *conference) endToEnd(w *window, r results, quality []score) {
	frames := float64(c.captured.Load())
	lat, _ := c.latencies(c.subs)
	d := newDist(lat)
	r.set("frame_latency_p50_ms", "ms", d.p50())
	r.set("frame_latency_p99_ms", "ms", d.p99())
	r.set("on_time_ratio", "ratio", c.onTimeRatio(c.subs))
	r.set("cpu_ms_per_frame", "ms", ratio((w.cpuUser+w.cpuSys).Seconds()*1e3, frames))
	r.set("uplink_kbit_per_frame", "kbit", ratio(float64(w.txBytes)*8/1e3, frames))
	r.set("downlink_kbit_per_frame", "kbit", ratio(float64(w.rxBytes)*8/1e3, frames*float64(len(c.subs))))
	var geo, col []float64
	for _, q := range quality {
		geo, col = append(geo, q.geo...), append(col, q.color...)
	}
	r.set("quality_pssim_geo", "pssim", mean(geo))
	r.set("quality_pssim_color", "pssim", mean(col))
	r.set("heap_live_mb", "MB", w.heapLive/1e6)
}

// perLayer fills the single-layer metrics of an untraced window.
func (c *conference) perLayer(w *window, r results, quality []score) {
	frames := float64(c.captured.Load())
	var sv, split, kept, gaps []float64
	var colorB, depthB, target, keys float64
	var rung [3]float64
	for i, e := range c.encs {
		sv = append(sv, float64(c.sendOut[i]-c.sendIn[i])/1e6)
		split, kept = append(split, e.split), append(kept, e.kept)
		colorB += float64(e.colorBytes)
		depthB += float64(e.depthBytes)
		target += float64(e.targetBytes)
		if e.key {
			keys++
		}
		for k := range rung {
			rung[k] += float64(e.rungBytes[k])
		}
	}
	for _, v := range c.viewers {
		gaps = append(gaps, v.gapsMs...)
	}
	svd := newDist(sv)
	r.set("core.send_views_ms.p50", "ms", svd.p50())
	r.set("core.send_views_ms.p99", "ms", svd.p99())
	r.set("core.split_s.mean", "ratio", mean(split))
	r.set("cull.kept_ratio", "ratio", mean(kept))
	r.set("livo.viewer_gap_ms.p99", "ms", newDist(gaps).p99())

	r.set("vcodec.color_bytes_per_frame", "bytes", ratio(colorB, frames))
	r.set("vcodec.depth_bytes_per_frame", "bytes", ratio(depthB, frames))
	r.set("vcodec.key_frames", "count", keys)
	r.set("vcodec.target_fill_ratio", "ratio", ratio(colorB+depthB, target))
	if c.w.ladder {
		r.set("vcodec.rung1_bytes_ratio", "ratio", ratio(rung[1], rung[0]))
		r.set("vcodec.rung2_bytes_ratio", "ratio", ratio(rung[2], rung[0]))
	}

	r.set("livo.send.packets_per_frame", "count", ratio(float64(w.send.Packets), float64(w.send.Frames)))
	r.set("livo.send.pace_drops", "count", float64(w.send.PaceDrops))
	r.set("livo.send.retransmits", "count", float64(w.send.Retransmits))
	r.set("livo.send.plis_received", "count", float64(w.send.PLIsReceived))
	r.set("livo.send.rate_mbps.mean", "Mbit/s", mean(c.rateMbps))

	var nacks, plis, conc, skipped float64
	for _, st := range w.recv {
		nacks += float64(st.NACKsSent)
		plis += float64(st.PLIsSent)
		conc += float64(st.Concealed)
		skipped += float64(st.Color.Skipped + st.Depth.Skipped)
	}
	r.set("transport.recv.nacks_sent", "count", nacks)
	r.set("transport.recv.plis_sent", "count", plis)
	r.set("transport.recv.concealed", "count", conc)
	r.set("transport.recv.skipped_frames", "count", skipped)
	r.set("transport.recv.est_rate_mbps.mean", "Mbit/s", mean(c.estMbps))
	r.set("transport.recv.jitter_pending.max", "frames", float64(c.pendingMax))

	rs := w.relay
	r.set("relaycore.fanout_pkts_per_s", "1/s", ratio(float64(rs.FanoutPackets), w.seconds))
	r.set("relaycore.drops", "count", float64(rs.Drops))
	r.set("relaycore.retx_hit_ratio", "ratio", ratio(float64(rs.RetxHits), float64(rs.RetxHits+rs.RetxMisses)))
	r.set("relaycore.nack_forwarded", "count", float64(rs.NACKForwarded))
	r.set("relaycore.nack_coalesced", "count", float64(rs.NACKCoalesced))
	r.set("relaycore.pli_forwarded", "count", float64(rs.PLIForwarded))
	r.set("relaycore.pli_suppressed", "count", float64(rs.PLISuppressed))
	if c.w.subsPerClass > 0 {
		c.fanoutLayer(w, r, quality)
	}

	ws := w.wire
	r.set("udpio.relay.write_syscalls_per_pkt", "ratio", ratio(float64(ws.WriteSyscalls), float64(ws.WritePackets)))
	r.set("udpio.relay.read_syscalls_per_pkt", "ratio", ratio(float64(ws.ReadSyscalls), float64(ws.ReadPackets)))
	r.set("udpio.relay.avg_read_batch", "packets", ratio(float64(ws.ReadPackets), float64(ws.ReadSyscalls)))
	r.set("udpio.truncated", "count", float64(w.truncated))
	r.set("udpio.kernel_rcvbuf_errors", "count", float64(w.rcvbufErr))

	cpu := (w.cpuUser + w.cpuSys).Seconds()
	r.set("process.allocs_per_frame", "count", ratio(float64(w.mallocs), frames))
	r.set("process.cpu_sys_share", "ratio", ratio(w.cpuSys.Seconds(), cpu))
	r.set("process.gc_cycles_per_s", "1/s", ratio(float64(w.gcs), w.seconds))
	r.set("process.gc_pause_ms.p99", "ms", newDist(w.gcPauseMs).p99())
	r.set("process.generator_lag_ms.p99", "ms", newDist(c.lagMs).p99())
}

// fanoutLayer fills the layer metrics only a fan-out moves: rung
// selection, and on-time and quality per REMB class.
func (c *conference) fanoutLayer(w *window, r results, quality []score) {
	rs := w.relay
	r.set("relaycore.fanout_skew_ms.p99", "ms", newDist(c.fanoutSkew()).p99())
	r.set("relaycore.rung_switches", "count", float64(rs.RungSwitches))
	onRung := 0
	for _, sub := range rs.Subs {
		for _, s := range c.subs {
			if s.addr.String() == sub.Addr && sub.Rung == fanoutClasses[s.class].rung {
				onRung++
			}
		}
	}
	r.set("relaycore.subs_on_class_rung_ratio", "ratio", ratio(float64(onRung), float64(len(c.subs))))
	for k, cl := range fanoutClasses {
		var members []*subscriber
		var geo []float64
		for _, s := range c.subs {
			if s.class == k {
				members = append(members, s)
			}
		}
		for vi, v := range c.viewers {
			if v.class == k {
				geo = append(geo, quality[vi].geo...)
			}
		}
		r.set("relaycore.class."+cl.name+".on_time_ratio", "ratio", c.onTimeRatio(members))
		r.set("relaycore.class."+cl.name+".pssim_geo", "pssim", mean(geo))
	}
}

// fanoutSkew is, per frame usable at two or more subscribers, the time
// from the first to the last of them.
func (c *conference) fanoutSkew() []float64 {
	var out []float64
	n := int(c.captured.Load())
	for i := 0; i < n; i++ {
		var lo, hi int64
		cnt := 0
		for _, s := range c.subs {
			t := s.usable[i]
			if t == 0 {
				continue
			}
			if cnt == 0 || t < lo {
				lo = t
			}
			if cnt == 0 || t > hi {
				hi = t
			}
			cnt++
		}
		if cnt >= 2 {
			out = append(out, float64(hi-lo)/1e6)
		}
	}
	return out
}

// summary is the one-line account of a run printed before the result: the
// host, the run's configuration, and what the generator itself did, so a
// scheduler or sink fault is not read as program latency.
func (c *conference) summary(w *window) string {
	var b strings.Builder
	lag := newDist(c.lagMs)
	fmt.Fprintf(&b, `"workload":%q,"seed":%d,"rig":"%dx%dx%d","fps":%d,"subscribers":%d,"frames":%d,"traced":%v`,
		c.w.name, c.seed, c.w.cameras, c.w.width, c.w.height, fps, len(c.subs), c.captured.Load(), c.traced)
	fmt.Fprintf(&b, `,"generator_lag_ms_p50":%.4f,"generator_lag_ms_p99":%.4f`, lag.p50(), lag.p99())
	if w != nil {
		fmt.Fprintf(&b, `,"kernel_rcvbuf_errors":%d,"kernel_counters_read":%v,"viewer_inbox_drops":%d,"stray_datagrams":%d`,
			w.rcvbufErr, w.rcvbufOK, w.inboxDrops, w.stray)
	}
	return b.String()
}
