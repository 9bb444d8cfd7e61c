// Package probesim is the prober simulator of §5.1: it sends all seven of
// the GFW's probe types — plus exhaustive random probes of 1–99 and 221
// bytes — to Shadowsocks servers and records their reactions. It can probe
// both in-process behavioural models (reaction.Server, fast, used to
// regenerate Figure 10 and Table 5) and real servers over TCP (cmd/probesim).
package probesim

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"sslab/internal/probe"
	"sslab/internal/reaction"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
	"sslab/internal/ssproto"
)

// ModelProber probes an in-process reaction.Server.
type ModelProber struct {
	Server *reaction.Server
	Now    time.Time
}

// Probe delivers one first-packet payload and returns the reaction.
func (m *ModelProber) Probe(payload []byte, generatedAt time.Time) (reaction.Reaction, error) {
	if m.Now.IsZero() {
		m.Now = time.Date(2019, 9, 29, 0, 0, 0, 0, time.UTC)
	}
	if generatedAt.IsZero() {
		generatedAt = m.Now
	}
	r := m.Server.ReactAt(payload, generatedAt, m.Now)
	return r.Reaction, nil
}

// TCPProber probes a live server over TCP, classifying the observable
// outcome the way the GFW would: response data, immediate FIN/ACK,
// immediate RST, or timeout.
type TCPProber struct {
	Addr string
	// Timeout is how long to wait before declaring TIMEOUT; the GFW's
	// probers use less than 10 seconds (default 3 s here).
	Timeout time.Duration
}

// Probe delivers one first-packet payload over real TCP and returns the
// observed reaction.
func (p *TCPProber) Probe(payload []byte, _ time.Time) (reaction.Reaction, error) {
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	c, err := net.DialTimeout("tcp", p.Addr, timeout)
	if err != nil {
		return 0, fmt.Errorf("probesim: dial %s: %w", p.Addr, err)
	}
	defer c.Close()
	if len(payload) > 0 {
		if _, err := c.Write(payload); err != nil {
			return reaction.RST, nil // reset during write
		}
	}
	c.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 4096)
	n, err := c.Read(buf)
	switch {
	case n > 0:
		return reaction.Data, nil
	case err == nil:
		return reaction.Timeout, nil
	default:
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return reaction.Timeout, nil
		}
		if strings.Contains(err.Error(), "reset") {
			return reaction.RST, nil
		}
		return reaction.FINACK, nil // clean EOF
	}
}

// Cell is the distribution of reactions for one probe length.
type Cell map[reaction.Reaction]int

// Dominant returns the most frequent reaction in the cell.
func (c Cell) Dominant() reaction.Reaction {
	best, bestN := reaction.Timeout, -1
	for _, r := range []reaction.Reaction{reaction.Timeout, reaction.RST, reaction.FINACK, reaction.Data} {
		if c[r] > bestN {
			best, bestN = r, c[r]
		}
	}
	return best
}

// Fraction returns the share of reaction r in the cell.
func (c Cell) Fraction(r reaction.Reaction) float64 {
	total := 0
	for _, n := range c {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(c[r]) / float64(total)
}

// Matrix maps probe length to the observed reaction distribution — one
// row of Figure 10.
type Matrix struct {
	Implementation string
	Versions       string
	Method         string
	IVSize         int
	Kind           sscrypto.Kind
	Cells          map[int]Cell
}

// RandomProbeLengths returns the probe lengths §5.1 exercises: 1–99 plus
// the GFW's 221.
func RandomProbeLengths() []int {
	out := make([]int, 0, 100)
	for n := 1; n <= 99; n++ {
		out = append(out, n)
	}
	return append(out, probe.NR2Length)
}

// ScanRandom sends `trials` random probes of every length in lengths to a
// fresh model server per configuration and collects the reaction matrix.
func ScanRandom(p reaction.Profile, spec sscrypto.Spec, password string, lengths []int, trials int, seed int64) (*Matrix, error) {
	srv, err := reaction.NewServer(p, spec, password)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	mp := &ModelProber{Server: srv}
	m := &Matrix{
		Implementation: p.Name, Versions: p.Versions,
		Method: spec.Name, IVSize: spec.IVSize, Kind: spec.Kind,
		Cells: map[int]Cell{},
	}
	for _, n := range lengths {
		cell := Cell{}
		for i := 0; i < trials; i++ {
			payload := make([]byte, n)
			rng.Read(payload)
			r, err := mp.Probe(payload, time.Time{})
			if err != nil {
				return nil, err
			}
			cell[r]++
		}
		m.Cells[n] = cell
	}
	return m, nil
}

// Render prints the matrix as a Figure 10-style band summary: contiguous
// length ranges with the same dominant reaction are collapsed.
func (m *Matrix) Render() string {
	lengths := make([]int, 0, len(m.Cells))
	for n := range m.Cells {
		lengths = append(lengths, n)
	}
	sort.Ints(lengths)

	var b strings.Builder
	fmt.Fprintf(&b, "%s %s, %s (%s, IV/salt %dB)\n",
		m.Implementation, m.Versions, m.Method, m.Kind, m.IVSize)
	start := -1
	var cur string
	flush := func(end int) {
		if start < 0 {
			return
		}
		if start == end {
			fmt.Fprintf(&b, "  len %3d:        %s\n", start, cur)
		} else {
			fmt.Fprintf(&b, "  len %3d–%3d:   %s\n", start, end, cur)
		}
	}
	prev := -1
	for _, n := range lengths {
		label := m.bandLabel(n)
		if label != cur || (prev >= 0 && n != prev+1) {
			flush(prev)
			start, cur = n, label
		}
		prev = n
	}
	flush(prev)
	return b.String()
}

// bandLabel summarizes a cell the way Figure 10's cells read.
func (m *Matrix) bandLabel(n int) string {
	c := m.Cells[n]
	dom := c.Dominant()
	if c.Fraction(dom) > 0.99 {
		return dom.String()
	}
	type rf struct {
		r reaction.Reaction
		f float64
	}
	var parts []rf
	for _, r := range []reaction.Reaction{reaction.RST, reaction.Timeout, reaction.FINACK, reaction.Data} {
		if f := c.Fraction(r); f > 0 {
			parts = append(parts, rf{r, f})
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].f > parts[j].f })
	var ss []string
	for _, p := range parts {
		ss = append(ss, fmt.Sprintf("%s(%.0f%%)", p.r, p.f*100))
	}
	return strings.Join(ss, " or ")
}

// ReplayResult is one Table 5 row: reactions to identical and
// byte-changed replays.
type ReplayResult struct {
	Implementation string
	Versions       string
	Mode           sscrypto.Kind
	Identical      Cell
	ByteChanged    Cell
}

// ScanReplay performs the Table 5 experiment against a model server:
// record genuine flights, then send identical (R1) and byte-changed (R2)
// replays.
func ScanReplay(p reaction.Profile, spec sscrypto.Spec, password string, trials int, seed int64, liveTarget string) (*ReplayResult, error) {
	srv, err := reaction.NewServer(p, spec, password)
	if err != nil {
		return nil, err
	}
	srv.Dialer = targetDialer{live: liveTarget}
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2019, 9, 29, 0, 0, 0, 0, time.UTC)

	res := &ReplayResult{
		Implementation: p.Name, Versions: p.Versions, Mode: spec.Kind,
		Identical: Cell{}, ByteChanged: Cell{},
	}
	for i := 0; i < trials; i++ {
		rec := genuineFlight(spec, password, liveTarget, rng)
		// The genuine connection happens (priming any replay filter).
		srv.ReactAt(rec, now, now)
		later := now.Add(time.Duration(1+rng.Intn(3600)) * time.Second)
		r1 := srv.ReactAt(append([]byte(nil), rec...), now, later)
		res.Identical[r1.Reaction]++
		r2 := srv.ReactAt(probe.Build(probe.R2, rec, rng), later, later)
		res.ByteChanged[r2.Reaction]++
	}
	return res, nil
}

// Render prints a Table 5-style row: R(eset)/T(imeout)/F(IN-ACK)/D(ata).
func (r *ReplayResult) Render() string {
	code := func(c Cell) string {
		var out []string
		for _, x := range []struct {
			r reaction.Reaction
			s string
		}{{reaction.RST, "R"}, {reaction.Timeout, "T"}, {reaction.FINACK, "F"}, {reaction.Data, "D"}} {
			if c.Fraction(x.r) > 0.02 {
				out = append(out, x.s)
			}
		}
		return strings.Join(out, "/")
	}
	return fmt.Sprintf("%-22s %-14s %-7v identical=%s byte-changed=%s",
		r.Implementation, r.Versions, r.Mode, code(r.Identical), code(r.ByteChanged))
}

// targetDialer treats one known target as live — replays of genuine
// connections reference targets that exist.
type targetDialer struct{ live string }

// Dial implements reaction.Dialer.
func (d targetDialer) Dial(target socks.Addr) reaction.DialOutcome {
	if target.String() == d.live {
		return reaction.DialOK
	}
	return reaction.HashDialer{}.Dial(target)
}

// recorderConn captures written bytes without forwarding them.
type recorderConn struct {
	net.Conn
	wire []byte
}

func (r *recorderConn) Write(p []byte) (int, error) {
	r.wire = append(r.wire, p...)
	return len(p), nil
}

// genuineFlight produces a real client first flight for the given method:
// target specification plus an HTTP-ish request, encrypted as a client
// would — the payload the GFW records and replays.
func genuineFlight(spec sscrypto.Spec, password, target string, rng *rand.Rand) []byte {
	addr, err := socks.ParseAddr(target)
	if err != nil {
		panic(err)
	}
	rec := &recorderConn{}
	conn := ssproto.NewConnWithRand(rec, spec, spec.Key(password), rng)
	first := append(addr.Append(nil), []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")...)
	if _, err := conn.Write(first); err != nil {
		panic(err)
	}
	return rec.wire
}

// ParseLengths parses a comma-separated list of lengths and ranges
// ("1-99,221") — the CLI's probe-length syntax.
func ParseLengths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a < 0 || b < a {
				return nil, fmt.Errorf("probesim: bad length range %q", part)
			}
			for n := a; n <= b; n++ {
				out = append(out, n)
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("probesim: bad length %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("probesim: no lengths in %q", s)
	}
	return out, nil
}
