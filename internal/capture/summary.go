package capture

import (
	"fmt"
	"io"
	"math"
	"sort"

	"sslab/internal/probe"
	"sslab/internal/stats"
)

// Summary is everything §3.3–§3.5 derive from a probe capture alone,
// from Figure 2's NR1 lengths through Figure 7's replay delays, Tables 2
// and 3 included. The §3.1 experiment report embeds it, and
// cmd/fingerprint prints it for any capture, so both apply one analysis.
type Summary struct {
	// Figure 2.
	NR1Lengths *stats.Histogram
	NR1Total   int
	NR2Count   int

	// Figure 3 / Table 2.
	UniqueIPs        int
	MultiUseFraction float64
	MaxPerIP         int
	TopIPs           []IPCount

	// Table 3.
	ASCounts map[int]int

	// Figure 5.
	EphemeralPortShare float64
	MinPort, MaxPort   int

	// Figure 6.
	TSClusters    int
	DominantRate  float64
	Cluster1000Hz int

	// Figure 7 (seconds).
	DelayFirst, DelayAll *stats.CDF
}

// Summarize computes the Summary of a capture.
func Summarize(l *Log) Summary {
	var s Summary

	// Figure 2: NR1 length histogram and NR2 count.
	s.NR1Lengths = l.LengthHistogram(func(r *Record) bool { return r.Type == probe.NR1 })
	s.NR1Total = s.NR1Lengths.Total
	for i := range l.Records {
		if l.Records[i].Type == probe.NR2 {
			s.NR2Count++
		}
	}

	// Figure 3 / Table 2.
	per := l.ProbesPerIP()
	s.UniqueIPs = len(per)
	s.MultiUseFraction = l.MultiUseFraction()
	for _, c := range per {
		s.MaxPerIP = max(s.MaxPerIP, c)
	}
	s.TopIPs = l.TopIPs(10)

	// Table 3.
	s.ASCounts = l.ASCounts()

	// Figure 5.
	if ports := l.SourcePorts(); ports.Len() > 0 {
		s.EphemeralPortShare = ports.P(60999) - ports.P(32767)
		s.MinPort = int(ports.Min())
		s.MaxPort = int(ports.Max())
	}

	// Figure 6.
	clusters := stats.ClusterTSvals(l.TSPoints(), []float64{250, 1000}, 100000)
	for i := range clusters {
		if len(clusters[i].Points) >= 10 {
			s.TSClusters++
			if clusters[i].Rate == 1000 {
				s.Cluster1000Hz = len(clusters[i].Points)
			}
		}
	}
	if len(clusters) > 0 && len(clusters[0].Points) >= 2 {
		if rate, err := clusters[0].MeasuredRate(); err == nil {
			s.DominantRate = rate
		}
	}

	// Figure 7.
	s.DelayAll, s.DelayFirst = l.ReplayDelays()
	return s
}

// WriteFigures prints the summary as the §3.1 report presents it, from
// the Figure 2 line through the Figure 7 line (omitted when the capture
// holds no replays).
func (s *Summary) WriteFigures(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: NR1 lengths (trios around 8,12,16,22,33,41,49); NR2(221B)=%d ≈ %.1f× all NR1 (%d)\n",
		s.NR2Count, float64(s.NR2Count)/math.Max(1, float64(s.NR1Total)), s.NR1Total)
	for _, k := range s.NR1Lengths.Keys() {
		fmt.Fprintf(w, "  len %2d: %d\n", k, s.NR1Lengths.Count(k))
	}

	fmt.Fprintf(w, "\nFigure 3: %d unique prober IPs, %.0f%% used more than once, max %d probes from one IP\n",
		s.UniqueIPs, s.MultiUseFraction*100, s.MaxPerIP)
	fmt.Fprintf(w, "Table 2: most common prober IPs:\n")
	for _, ip := range s.TopIPs {
		fmt.Fprintf(w, "  %-18s %d\n", ip.IP, ip.Count)
	}

	// Table 3's rows come from a map: equal counts fall back to AS
	// number, so the text is a function of the summary alone.
	fmt.Fprintf(w, "Table 3: unique prober IPs per AS:\n")
	type asn struct{ id, n int }
	var asns []asn
	for id, n := range s.ASCounts {
		asns = append(asns, asn{id, n})
	}
	sort.Slice(asns, func(i, j int) bool {
		if asns[i].n != asns[j].n {
			return asns[i].n > asns[j].n
		}
		return asns[i].id < asns[j].id
	})
	for _, a := range asns {
		fmt.Fprintf(w, "  AS%-6d %d\n", a.id, a.n)
	}

	fmt.Fprintf(w, "\nFigure 5: %.1f%% of source ports in 32768–60999; min %d, max %d\n",
		s.EphemeralPortShare*100, s.MinPort, s.MaxPort)
	fmt.Fprintf(w, "Figure 6: %d shared TSval processes (dominant ≈ %.1f Hz; 1000 Hz cluster has %d probes)\n",
		s.TSClusters, s.DominantRate, s.Cluster1000Hz)
	if s.DelayAll.Len() > 0 {
		fmt.Fprintf(w, "Figure 7: replay delays — first: P(1s)=%.0f%% P(1min)=%.0f%% P(15min)=%.0f%%; min %.2fs max %.1fh\n",
			s.DelayFirst.P(1)*100, s.DelayFirst.P(60)*100, s.DelayFirst.P(900)*100,
			s.DelayAll.Min(), s.DelayAll.Max()/3600)
	}
}
