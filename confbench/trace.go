package main

import (
	"math"

	"livo/internal/frametrace"
)

// chainPoint resolves a frametrace.Stages endpoint on a timeline. The two
// endpoints past the real hops are the later of the color and depth stamps
// of encode and of decode, as frametrace defines them.
func chainPoint(tl *frametrace.FrameTimeline, h frametrace.Hop) (int64, bool) {
	pair := func(a, b frametrace.Hop) (int64, bool) {
		ta, oka := tl.Get(a)
		tb, okb := tl.Get(b)
		switch {
		case oka && okb:
			return max(ta, tb), true
		case oka:
			return ta, true
		default:
			return tb, okb
		}
	}
	switch int(h) {
	case frametrace.NumHops:
		return pair(frametrace.HopEncodeColor, frametrace.HopEncodeDepth)
	case frametrace.NumHops + 1:
		return pair(frametrace.HopDecodeColor, frametrace.HopDecodeDepth)
	}
	return tl.Get(h)
}

// frametraceMetrics decomposes the traced run's latency at its first
// decoding viewer into the program's frametrace stages, and reconciles the
// stage sums with the latency the benchmark measured for the same frames:
// scheduled capture → the ledger's capture stamp (generator wait), then
// the stages, against scheduled capture → usable.
func (c *conference) frametraceMetrics(w *window, r results) {
	v := c.viewers[0]
	sub := frametrace.NoSub
	for _, st := range w.relay.Subs {
		if st.Addr == v.addr.String() {
			sub = st.ID
		}
	}
	col := frametrace.NewCollector()
	col.Add(c.sendLed, 0)
	col.Add(c.relayLed, 0)
	col.Add(v.led, 0)
	stages := make([][]float64, len(frametrace.Stages))
	var explained, measured float64
	for _, tl := range col.Merge(sub) {
		i := int(tl.Seq)
		if i >= int(c.captured.Load()) || v.usable[i] == 0 || v.concealed[i] {
			continue
		}
		var ds []float64
		for _, sd := range frametrace.Stages {
			from, ok1 := chainPoint(&tl, sd.From)
			to, ok2 := chainPoint(&tl, sd.To)
			if !ok1 || !ok2 {
				break
			}
			ds = append(ds, float64(to-from)/1e6)
		}
		if len(ds) != len(frametrace.Stages) {
			continue
		}
		capT, _ := tl.Get(frametrace.HopCapture)
		explained += float64(capT-c.sched(i)) / 1e6
		for k, d := range ds {
			stages[k] = append(stages[k], d)
			explained += d
		}
		measured += float64(v.usable[i]-c.sched(i)) / 1e6
	}
	for k, sd := range frametrace.Stages {
		d := newDist(stages[k])
		r.set("frametrace."+sd.Name+".p50_ms", "ms", d.p50())
		r.set("frametrace."+sd.Name+".p99_ms", "ms", d.p99())
	}
	pct := 100.0
	if measured > 0 {
		pct = 100 * math.Abs(explained-measured) / measured
	}
	r.set("frametrace.reconcile_pct", "pct", pct)
	r.set("frametrace.frames", "count", float64(len(stages[0])))
	switch {
	case len(stages[0]) == 0:
		c.fail("frametrace: no frame shown at the first viewer has a complete timeline")
	case pct > c.w.reconcilePct:
		c.fail("frametrace: stage sums miss the measured latency by %.3f%%, over the workload's %g%% limit", pct, c.w.reconcilePct)
	}
}
