package experiments

// Shape tests of the X5-variant acceptance criteria: striping beats the
// single-path pipelined relay by >= 1.5x at 64 KiB, the adaptive plan
// routes around a loaded bridge (faster transfer AND a quieter hot
// gateway), and no gateway queue ever exceeds its configured bound.

import (
	"testing"
)

func TestAdaptiveMultipathShape(t *testing.T) {
	r := artifact(t, "adaptive")
	stripe := byName(t, r.Series, "Relay_stripe")
	single := byName(t, r.Series, "Relay_single")
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20} {
		s, p := get(t, stripe, size), get(t, single, size)
		ratio := float64(p.OneWay) / float64(s.OneWay)
		if ratio < 1.5 {
			t.Errorf("stripe speedup %.2fx at %d B, want >= 1.5x", ratio, size)
		}
	}
	// Below the pipeline-fill floor striping must at least not lose.
	if s, p := get(t, stripe, 16<<10), get(t, single, 16<<10); s.OneWay > p.OneWay {
		t.Errorf("striping slower than single-path at 16K: %v vs %v", s.OneWay, p.OneWay)
	}

	adapt := byName(t, r.Series, "Adapt_adaptive")
	static := byName(t, r.Series, "Adapt_static")
	adaptQ := byName(t, r.Series, "AdaptQ_adaptive")
	staticQ := byName(t, r.Series, "AdaptQ_static")
	for _, size := range []int{64 << 10, 256 << 10} {
		if a, s := get(t, adapt, size), get(t, static, size); a.OneWay >= s.OneWay {
			t.Errorf("adaptive transfer not faster at %d B: %v vs %v", size, a.OneWay, s.OneWay)
		}
		aq, sq := get(t, adaptQ, size), get(t, staticQ, size)
		if aq.OneWay >= sq.OneWay {
			t.Errorf("hot gateway queue did not drop at %d B: %v vs %v", size, aq.OneWay, sq.OneWay)
		}
	}

	// The bounded store-and-forward queue: the deepest gateway queue of
	// the stripe sessions never exceeds the configured window (the series
	// encodes one queue slot per microsecond).
	qmax := byName(t, r.Series, "RelayQPeakMax")
	for _, p := range qmax.Points {
		if p.LatencyUS() > adaptiveRelayWindow {
			t.Errorf("gateway queue peak %.0f at %d B exceeds the window of %d",
				p.LatencyUS(), p.Size, adaptiveRelayWindow)
		}
	}
}
