package main

import (
	"runtime"
	"sync"

	"livo/internal/experiments"
	"livo/internal/metrics"
	"livo/internal/pointcloud"
)

// sampleEvery is the spacing of quality samples at a single viewer: a
// stalled sample scores 0, so with too few of them one stall moves a run's
// mean by several points.
const sampleEvery = 20

// sampleSpacing is the spacing of quality samples at each decoding viewer:
// a fan-out's viewers each sample as many times less often as there are
// of them, so every run scores about as many clouds (scoring, after the
// window, is most of a run's time outside it).
func (w workload) sampleSpacing() int { return sampleEvery * w.decodingViewers() }

// score is a viewer's PointSSIM over its sampled frames, the way the
// replay experiments score a run: each sample against the uncompressed
// capture, both culled to the viewer's frustum when the frame was shown,
// and a sampled frame the viewer never showed scores 0 (a stall).
type score struct{ geo, color []float64 }

// scoreViewers scores every decoding viewer of a finished conference.
func scoreViewers(c *conference) ([]score, error) {
	var frames []int
	for i := 0; i < int(c.captured.Load()); i += c.w.sampleSpacing() {
		frames = append(frames, i)
	}
	gt := make([]*pointcloud.Cloud, len(c.clip.views))
	wanted := make([]bool, len(c.clip.views))
	var need []int
	for _, i := range frames {
		if k := c.clip.index(i); !wanted[k] {
			wanted[k] = true
			need = append(need, k)
		}
	}
	errs := make([]error, len(need))
	parallel(len(need), func(j int) {
		pos, cols, err := c.clip.video.Array.PointsFromViews(c.clip.views[need[j]])
		if err == nil {
			gt[need[j]], err = pointcloud.FromSlices(pos, cols)
		}
		errs[j] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make([]score, len(c.viewers))
	for v := range out {
		out[v] = score{geo: make([]float64, len(frames)), color: make([]float64, len(frames))}
	}
	opts := metrics.PSSIMOptions{MaxPoints: experiments.QuickQuality().MetricPoints, K: 8}
	parallel(len(c.viewers)*len(frames), func(j int) {
		v, f := j/len(frames), j%len(frames)
		i := frames[f]
		sm, ok := c.viewers[v].samples[i]
		if !ok {
			return
		}
		o := opts
		o.Seed = c.seed + int64(i)
		p := metrics.PointSSIM(gt[c.clip.index(i)].CullFrustum(sm.frustum), sm.cloud, o)
		out[v].geo[f], out[v].color[f] = p.Geometry, p.Color
	})
	return out, nil
}

// parallel runs f(0..n-1) on up to one goroutine per CPU and waits for
// them; it serves the work before and after the timed window.
func parallel(n int, f func(i int)) {
	workers := min(runtime.NumCPU(), n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
