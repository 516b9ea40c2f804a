package frametrace

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WriteTimelinesJSONL writes merged timelines one JSON object per line:
//
//	{"seq":12,"hops":{"capture":...,"encode_color":...},"e2e_ms":4.1}
//
// Hop times are nanoseconds on the collector's reference clock; e2e_ms
// is present when both capture and reconstruct were stamped.
func WriteTimelinesJSONL(w io.Writer, tls []FrameTimeline) error {
	for i := range tls {
		tl := &tls[i]
		if _, err := fmt.Fprintf(w, "{\"seq\":%d,\"hops\":{", tl.Seq); err != nil {
			return err
		}
		first := true
		for h := Hop(0); int(h) < NumHops; h++ {
			t, ok := tl.Get(h)
			if !ok {
				continue
			}
			if !first {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(w, "%q:%d", h.String(), t); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
		if cap0, ok := tl.Get(HopCapture); ok {
			if rec, ok := tl.Get(HopReconstruct); ok {
				if _, err := fmt.Fprintf(w, ",\"e2e_ms\":%.3f", float64(rec-cap0)/1e6); err != nil {
					return err
				}
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsJSONL writes up to n recent events one JSON object per
// line, oldest first.
func WriteEventsJSONL(w io.Writer, r *EventRing, n int) error {
	for _, ev := range r.Recent(n) {
		var err error
		switch ev.Kind {
		case EvFrameDrop:
			_, err = fmt.Fprintf(w,
				"{\"event\":%q,\"reason\":%q,\"stream\":%d,\"seq\":%d,\"sub\":%d,\"t_ns\":%d}\n",
				ev.Kind.String(), DropReason(ev.Val).String(), ev.Stream, ev.Seq, ev.Sub, ev.TimeNs)
		case EvRungSwitch:
			from, to, remb := UnpackRungSwitch(ev.Val)
			a := ev.Aux
			_, err = fmt.Fprintf(w,
				"{\"event\":%q,\"stream\":%d,\"seq\":%d,\"sub\":%d,\"from\":%d,\"to\":%d,\"remb_bps\":%d,\"rung_bps\":[%d,%d,%d,%d],\"est_age_ms\":%.1f,\"t_ns\":%d}\n",
				ev.Kind.String(), ev.Stream, ev.Seq, ev.Sub, from, to, remb,
				a[0], a[1], a[2], a[3], float64(a[4])/1e6, ev.TimeNs)
		default:
			_, err = fmt.Fprintf(w,
				"{\"event\":%q,\"stream\":%d,\"seq\":%d,\"sub\":%d,\"val\":%d,\"t_ns\":%d}\n",
				ev.Kind.String(), ev.Stream, ev.Seq, ev.Sub, ev.Val, ev.TimeNs)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// queryN parses ?n=COUNT with a default.
func queryN(r *http.Request, def int) int {
	if v := r.URL.Query().Get("n"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p > 0 {
			return p
		}
	}
	return def
}

// FramesHandler serves the ledger's retained stamps merged into
// per-frame timelines as JSONL (?n= caps the number of frames, newest
// kept; ?sub= follows one subscriber through the per-subscriber hops).
// Intended to be mounted as /debugz/frames.
func FramesHandler(l *Ledger) http.Handler {
	return framesHandler(func() *Collector {
		c := NewCollector()
		c.Add(l, 0)
		return c
	})
}

// MergedFramesHandler is FramesHandler over several ledgers sharing one
// clock (in-process sender + relay + receiver).
func MergedFramesHandler(ledgers ...*Ledger) http.Handler {
	return framesHandler(func() *Collector {
		c := NewCollector()
		for _, l := range ledgers {
			c.Add(l, 0)
		}
		return c
	})
}

func framesHandler(mk func() *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sub := NoSub
		if v := r.URL.Query().Get("sub"); v != "" {
			if p, err := strconv.Atoi(v); err == nil {
				sub = int32(p)
			}
		}
		tls := mk().Merge(sub)
		if n := queryN(r, 64); len(tls) > n {
			tls = tls[len(tls)-n:]
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = WriteTimelinesJSONL(w, tls)
	})
}

// EventsHandler serves recent data-plane events as JSONL (?n=COUNT,
// default 256). Intended to be mounted as /debugz/events.
func EventsHandler(ring *EventRing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = WriteEventsJSONL(w, ring, queryN(r, 256))
	})
}
