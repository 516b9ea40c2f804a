package main

import (
	"fmt"
	"math/rand"

	"livo"
	"livo/internal/frame"
	"livo/internal/scene"
)

const (
	fps        = 30
	jitterS    = 0.100 // playout delay of every viewer (the receiver default)
	onTimeMs   = 300.0 // the paper's glass-to-glass limit
	clipFrames = 48    // pre-rendered capture, played forward and back
	sceneName  = "band2"
)

// class is a REMB class of fan-out subscribers, advertising a fixed
// estimate. At the fast class's budget this rig's encoder makes rung 1
// about 0.3 and rung 2 about 0.11 of rung 0's bytes, so under the relay's
// 0.9 headroom (0.75 to move up) the mid estimate affords rung 1 and not
// rung 0, and the slow one rung 2 and not rung 1. The fast estimate is
// also the sender's budget, which the encoder fills to ~0.96–1.0, so rung
// 0 does not fit it (METRICS.md, "Known limits"). With all three rungs on
// the wire at ~1.4 times that budget, 1.2 Mbit/s is where the sender's
// pacer keeps up on the 2-core reference host.
type class struct {
	name string
	bps  float64
	rung uint8
}

var fanoutClasses = []class{
	{"fast", 1.2e6, 0},
	{"mid", 0.8e6, 1},
	{"slow", 0.2e6, 2},
}

// workload is one traffic mix. Its inputs (clip offset, viewer trace and
// fault schedule) all derive from the run's seed.
type workload struct {
	name                   string
	cameras, width, height int
	variant                livo.Variant
	ladder                 bool
	// poses feeds the viewer's seeded pose trace back to the sender, whose
	// culling then follows it.
	poses bool
	// subsPerClass > 0 makes a fan-out: that many subscribers in each of
	// fanoutClasses, the first of each class a decoding viewer and the rest
	// counting sinks. 0 is a single decoding viewer.
	subsPerClass int
	// lossy shapes the relay→viewer leg with the trace-driven link and the
	// fault injector.
	lossy bool
	// reconcilePct is how far, in percent, the traced run's frametrace
	// stage sums may miss the latency the benchmark measured for the same
	// frames before the run fails (METRICS.md, "Checks").
	reconcilePct float64
}

var workloads = []workload{
	{name: "call", cameras: 6, width: 96, height: 80, variant: livo.VariantLiVo, poses: true, reconcilePct: 1},
	{name: "fanout", cameras: 6, width: 96, height: 80, variant: livo.VariantNoCull, ladder: true, subsPerClass: 32, reconcilePct: 1},
	{name: "mobile-lossy", cameras: 6, width: 96, height: 80, variant: livo.VariantLiVo, poses: true, lossy: true, reconcilePct: 20},
}

// decodingViewers is how many subscribers are decoding viewers: one per
// class in a fan-out, else the one.
func (w workload) decodingViewers() int {
	if w.subsPerClass > 0 {
		return len(fanoutClasses)
	}
	return 1
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// accessBps is a single viewer's access capacity: the cap on its
// bandwidth estimate in call, and the mean of the trace-driven link in
// mobile-lossy, so the two calls differ only in the link's variation and
// faults. It and the rig sit where the sender's pacer keeps up on the
// 2-core reference host; METRICS.md ("Known limits") gives the runs at
// larger rigs and rates, where latency swings by seconds between seeds.
const accessBps = 1.6e6

// clip is the pre-rendered capture a run replays, played forward and back
// so the motion never jumps at a loop point.
type clip struct {
	video *scene.Video
	views [][]frame.RGBDFrame
	bytes int64 // heap held by views
}

func renderClip(w workload, seed int64) (*clip, error) {
	cfg := scene.DefaultCaptureConfig()
	cfg.Cameras, cfg.Width, cfg.Height = w.cameras, w.width, w.height
	v, err := scene.OpenVideo(sceneName, cfg)
	if err != nil {
		return nil, err
	}
	off := rand.New(rand.NewSource(seed)).Intn(v.NumFrames() - clipFrames)
	c := &clip{video: v, views: make([][]frame.RGBDFrame, clipFrames)}
	parallel(clipFrames, func(k int) { c.views[k] = v.Frame(off + k) })
	for _, views := range c.views {
		for _, vw := range views {
			c.bytes += int64(len(vw.Color.Pix) + 2*len(vw.Depth.Pix))
		}
	}
	return c, nil
}

// index is the clip frame shown as capture frame i.
func (c *clip) index(i int) int {
	period := 2 * (len(c.views) - 1)
	k := i % period
	if k >= len(c.views) {
		k = period - k
	}
	return k
}

func (c *clip) frame(i int) []frame.RGBDFrame { return c.views[c.index(i)] }
