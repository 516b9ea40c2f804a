// Command confbench is the conference benchmark: one sender, a relay and
// decoding viewers (plus counting sinks in a fan-out) over loopback UDP,
// driven through the public livo API by an open-loop 30 fps capture clock.
//
//	bash confbench/run.sh --workload call --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 the per-layer ones, from an untraced window and a window with
// the program's frametrace ledgers on. The last line of standard output is
// the result object; the line before it describes the host and the run.
// METRICS.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// setupProbes is how many extra set-ups a run times besides its measured
// conference; setup_s is the median of all of them.
const setupProbes = 4

// probeSeconds bounds a set-up probe's clock.
const probeSeconds = 3

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   results `json:"metrics"`
}

func main() {
	name := flag.String("workload", "call", "workload: call, fanout or mobile-lossy")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 40, "measured seconds of capture")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics (untraced and traced windows)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "confbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds must be at least 2")
	}
	cl, err := renderClip(w, seed)
	if err != nil {
		return fmt.Errorf("render clip: %w", err)
	}
	res := result{Metrics: results{}}
	var confs []*conference
	newConf := func(frames int, probe, tr bool) *conference {
		c := &conference{w: w, clip: cl, seed: seed, frames: frames, probe: probe, traced: tr}
		confs = append(confs, c)
		return c
	}
	frames := seconds * fps
	var summaries []string
	if !traced {
		var setups []float64
		for p := 0; p < setupProbes; p++ {
			c := newConf(probeSeconds*fps, true, false)
			if _, err := c.run(); err != nil {
				return err
			}
			if at := c.readyAt.Load(); at != 0 {
				setups = append(setups, float64(at-c.start)/1e9)
			}
		}
		c := newConf(frames, false, false)
		win, err := c.run()
		if err != nil {
			return err
		}
		if at := c.readyAt.Load(); at != 0 {
			setups = append(setups, float64(at-c.start)/1e9)
		}
		q, err := scoreViewers(c)
		if err != nil {
			return err
		}
		c.endToEnd(win, res.Metrics, q)
		res.Metrics.set("setup_s", "s", median(setups))
		summaries = append(summaries, c.summary(win))
	} else {
		// Half the time untraced (the per-layer counters) and half traced
		// (the frametrace stages); their difference is the tracing cost.
		u := newConf(frames/2, false, false)
		uw, err := u.run()
		if err != nil {
			return err
		}
		q, err := scoreViewers(u)
		if err != nil {
			return err
		}
		u.perLayer(uw, res.Metrics, q)
		t := newConf(frames/2, false, true)
		tw, err := t.run()
		if err != nil {
			return err
		}
		t.frametraceMetrics(tw, res.Metrics)
		ue, te := results{}, results{}
		u.endToEnd(uw, ue, nil)
		t.endToEnd(tw, te, nil)
		res.Metrics.set("frametrace.overhead_cpu_pct", "pct",
			100*(ratio(te["cpu_ms_per_frame"].Value, ue["cpu_ms_per_frame"].Value)-1))
		res.Metrics.set("frametrace.overhead_latency_pct", "pct",
			100*(ratio(te["frame_latency_p50_ms"].Value, ue["frame_latency_p50_ms"].Value)-1))
		summaries = append(summaries, u.summary(uw), t.summary(tw))
	}
	var failures []string
	for _, c := range confs {
		res.Attempted += c.captured.Load() * int64(len(c.subs))
		failures = append(failures, c.failures...)
	}
	res.Failed = int64(len(failures))
	res.Correct = res.Failed == 0
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "confbench: check failed:", f)
	}
	info, err := json.Marshal(fingerprint())
	if err != nil {
		return err
	}
	fmt.Printf("{\"host\":%s", info)
	for k, s := range summaries {
		fmt.Printf(",\"run%d\":{%s}", k, s)
	}
	fmt.Println("}")
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
