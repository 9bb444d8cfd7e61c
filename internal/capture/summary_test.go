package capture

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sslab/internal/probe"
	"sslab/internal/stats"
)

// summaryLog builds a capture that exercises every part of a Summary:
// reused prober IPs spread evenly over five ASes (so Table 3's counts
// tie), NR1 and NR2 probes, replays of a few recorded payloads (each
// replayed several times, so Figure 7's first-occurrence CDF differs
// from the all-occurrence one), and a dominant 250 Hz TCP-timestamp
// process beside a small 1000 Hz one.
func summaryLog() *Log {
	rng := rand.New(rand.NewSource(5))
	asns := []int{4837, 4134, 17622, 24400, 56047}
	l := NewLog(t0)
	for i := 0; i < 600; i++ {
		at := t0.Add(time.Duration(i) * 7 * time.Minute)
		ip := i % 150
		if i >= 150 {
			ip = rng.Intn(150)
		}
		ts := uint32(1e6 + 250*at.Sub(t0).Seconds())
		if i%25 == 0 {
			ts = uint32(7e8 + 1000*at.Sub(t0).Seconds())
		}
		r := Record{
			Time: at, SrcIP: fmt.Sprintf("175.42.%d.%d", ip/100, ip%100+1),
			SrcPort: 32768 + rng.Intn(28232), DstIP: "178.62.1.1", DstPort: 8388,
			ASN: asns[ip%len(asns)], TTL: 46 + rng.Intn(5), IPID: uint16(rng.Intn(1 << 16)),
			TSval: ts,
		}
		switch rng.Intn(4) {
		case 0:
			r.Type, r.Payload = probe.NR1, make([]byte, 7+rng.Intn(3))
		case 1:
			r.Type, r.Payload = probe.NR2, make([]byte, 221)
		default:
			r.Type = probe.R1
			r.Payload = []byte(fmt.Sprintf("recorded-payload-%02d", rng.Intn(40)))
			r.ReplayOf = at.Add(-time.Duration(1+rng.Intn(7200)) * time.Second)
		}
		if i == 7 {
			r.SrcPort = 1212 // Figure 5's non-ephemeral tail
		}
		l.Add(r)
	}
	return l
}

func figures(s Summary) string {
	var b strings.Builder
	s.WriteFigures(&b)
	return b.String()
}

// TestSummarizeSurvivesJSONRoundTrip: the Summary of a capture equals
// the Summary of the same capture written by WriteJSON and read back by
// ReadJSON, field for field and as rendered text — the path
// cmd/fingerprint takes over a gfwsim -dump file.
func TestSummarizeSurvivesJSONRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name string
		l    *Log
	}{{"capture", summaryLog()}, {"empty", NewLog(t0)}} {
		l := c.l
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := l.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want, got := Summarize(l), Summarize(back)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Summarize after the round trip:\n%+v\nwant\n%+v", got, want)
			}
			if g, w := figures(got), figures(want); g != w {
				t.Errorf("rendered after the round trip:\n%s\nwant\n%s", g, w)
			}
		})
	}

	// The capture must reach every figure, or the comparison above
	// proves little.
	s := Summarize(summaryLog())
	if s.NR1Total == 0 || s.NR2Count == 0 || s.DelayAll.Len() == 0 ||
		s.DelayFirst.Len() >= s.DelayAll.Len() || s.TSClusters < 2 ||
		s.Cluster1000Hz == 0 || s.MinPort != 1212 || s.MultiUseFraction == 0 {
		t.Errorf("summary misses a figure: %+v", s)
	}
	if len(s.ASCounts) != 5 || s.ASCounts[4837] != s.ASCounts[56047] {
		t.Errorf("AS counts %v, want five tied ASes", s.ASCounts)
	}
	if text := figures(s); !strings.Contains(text, "Figure 7:") {
		t.Errorf("rendered summary lacks Figure 7:\n%s", text)
	}
	if text := figures(Summarize(NewLog(t0))); strings.Contains(text, "Figure 7:") {
		t.Errorf("empty capture rendered Figure 7:\n%s", text)
	}
}

// TestSummaryTable3Deterministic: Table 3's AS rows come from a map;
// rows with equal counts must still render in one order (by AS number),
// so the text is a function of the summary alone.
func TestSummaryTable3Deterministic(t *testing.T) {
	s := Summary{
		NR1Lengths: stats.NewHistogram(),
		DelayFirst: stats.NewCDF(nil),
		DelayAll:   stats.NewCDF(nil),
		ASCounts:   map[int]int{4837: 9, 56047: 1, 24400: 1, 17816: 1, 4134: 9},
	}
	want := "  AS4134   9\n  AS4837   9\n  AS17816  1\n  AS24400  1\n  AS56047  1\n"
	for i := 0; i < 20; i++ {
		_, table, _ := strings.Cut(figures(s), "Table 3: unique prober IPs per AS:\n")
		if !strings.HasPrefix(table, want) {
			t.Fatalf("render %d: Table 3 rows\n%s\nwant\n%s", i, table[:min(len(table), len(want))], want)
		}
	}
}
