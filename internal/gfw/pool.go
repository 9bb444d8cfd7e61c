package gfw

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"sslab/internal/netsim"
	"sslab/internal/seedfork"
)

// ASWeights is the distribution of unique prober IPs per autonomous
// system, exactly as measured in Table 3 of the paper.
var ASWeights = map[int]int{
	4837: 6262, 4134: 5188, 17622: 315, 17621: 263, 17816: 104,
	4847: 101, 58563: 44, 17638: 17, 9808: 2, 4812: 1,
	24400: 1, 56046: 1, 56047: 1,
}

// asPrefixes maps each AS to plausible first-two-octet prefixes; the top
// entries reuse the real prefixes of the most common prober addresses in
// Table 2 (175.42/223.166/124.235/113.128/221.213/112.80/116.252).
var asPrefixes = map[int][]string{
	4837:  {"175.42", "221.213", "113.128", "125.211", "60.17"},
	4134:  {"223.166", "124.235", "112.80", "116.252", "61.160"},
	17622: {"58.248", "58.249"},
	17621: {"210.13", "210.14"},
	17816: {"211.162", "211.163"},
	4847:  {"218.105", "218.106"},
	58563: {"36.248", "36.249"},
	17638: {"211.157", "211.158"},
	9808:  {"120.196", "120.197"},
	4812:  {"101.80", "101.81"},
	24400: {"117.184", "117.185"},
	56046: {"223.68", "223.69"},
	56047: {"223.70", "223.71"},
}

// tsProcess is one centralized sender process: thousands of prober IPs
// share these few TCP-timestamp sequences (Figure 6's side channel).
type tsProcess struct {
	rate   float64 // timestamp ticks per second
	offset uint32  // counter value at the simulation epoch
	weight float64 // share of probes this process sends
}

// poolIP is one prober source address.
type poolIP struct {
	addr string
	asn  int
}

// Non-ephemeral source ports spread over [nonEphemeralPortMin,
// nonEphemeralPortMax] inclusive — Figure 5's observed support.
const (
	nonEphemeralPortMin = 1212
	nonEphemeralPortMax = 65535
)

// Pool models the censor's probing infrastructure: a large, high-churn
// set of source IP addresses spread over the Table 3 ASes, with per-probe
// fingerprints (source port, TTL, IP ID, TCP timestamp) matching §3.4.
type Pool struct {
	rng   seedfork.Source
	ips   []poolIP
	cum   []float64 // cumulative sampling weights over ips
	procs []tsProcess
	start time.Time
}

// ProbeSource is everything the network layer reveals about one probe.
type ProbeSource struct {
	IP    string
	ASN   int
	Port  int
	TTL   int
	IPID  uint16
	TSval uint32
	// Process indexes which centralized sender emitted the probe (ground
	// truth for validating the Figure 6 clustering).
	Process int
}

// NewPool builds a pool of size addresses that draws from rng, which
// must not have drawn yet (see seedfork.Source).
func NewPool(rng seedfork.Source, size int, start time.Time) *Pool {
	p := &Pool{rng: rng, start: start}
	// Source has no NormFloat64 or Uint32; the wrapper draws both from
	// the same stream.
	wrap := rand.New(&p.rng)

	// Assign counts per AS proportional to Table 3.
	totalW := 0
	for _, w := range ASWeights {
		totalW += w
	}
	type asn struct{ id, want int }
	var asns []asn
	total, maxPrefixes := 0, 0
	for id, w := range ASWeights {
		n := w * size / totalW
		if n == 0 {
			n = 1
		}
		asns = append(asns, asn{id, n})
		total += n
		maxPrefixes = max(maxPrefixes, len(asPrefixes[id]))
	}
	// Deterministic order for reproducibility: want descending, id
	// ascending. The comparison is total (ids are unique), so the final
	// order — and every RNG draw below — is byte-identical to the
	// historical hand-rolled sort.
	sort.Slice(asns, func(i, j int) bool {
		if asns[i].want != asns[j].want {
			return asns[i].want > asns[j].want
		}
		return asns[i].id < asns[j].id
	})

	// Prefixes are distinct across ASes, so an address can only repeat
	// within its own AS: dedup per AS on a (prefix, third octet, fourth
	// octet) bit set, and write every address once into one backing
	// string that the table slices.
	seen := make([]uint64, maxPrefixes<<16/64)
	buf := make([]byte, 0, total*len("255.255.255.255"))
	ends := make([]int, 0, total)
	p.ips = make([]poolIP, 0, total)
	for _, a := range asns {
		prefixes := asPrefixes[a.id]
		clear(seen)
		for n := 0; n < a.want; n++ {
			var pfx, o3, o4 int
			for {
				pfx = p.rng.Intn(len(prefixes))
				o3 = p.rng.Intn(256)
				o4 = 1 + p.rng.Intn(254)
				k := pfx<<16 | o3<<8 | o4
				if seen[k/64]&(1<<(k%64)) == 0 {
					seen[k/64] |= 1 << (k % 64)
					break
				}
			}
			buf = append(buf, prefixes[pfx]...)
			buf = append(buf, '.')
			buf = strconv.AppendInt(buf, int64(o3), 10)
			buf = append(buf, '.')
			buf = strconv.AppendInt(buf, int64(o4), 10)
			ends = append(ends, len(buf))
			p.ips = append(p.ips, poolIP{asn: a.id})
		}
	}
	addrs, from := string(buf), 0
	for i, end := range ends {
		p.ips[i].addr = addrs[from:end]
		from = end
	}

	// Heavy-tailed reuse weights (log-normal), so some addresses probe
	// dozens of times while most probe a handful — Figure 3's shape.
	p.cum = make([]float64, len(p.ips))
	sum := 0.0
	for i := range p.ips {
		w := math.Exp(wrap.NormFloat64() * 0.7)
		sum += w
		p.cum[i] = sum
	}

	// Seven 250 Hz processes (one dominant) plus one small 1000 Hz
	// process — the Figure 6 structure.
	weights := []float64{0.82, 0.05, 0.04, 0.03, 0.025, 0.02, 0.0146}
	for _, w := range weights {
		p.procs = append(p.procs, tsProcess{rate: 250, offset: wrap.Uint32(), weight: w})
	}
	p.procs = append(p.procs, tsProcess{rate: 1000, offset: wrap.Uint32(), weight: 0.0004})
	return p
}

// pickIP samples an address by weight.
func (p *Pool) pickIP() poolIP {
	x := p.rng.Float64() * p.cum[len(p.cum)-1]
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.ips[lo]
}

// pickProcess samples a sender process by weight. Float accumulation of
// the weights can underflow their nominal sum, so a draw in the sliver
// between the accumulated total and 1.0 falls off the loop; returning
// process 0 there (as this function once did) silently inflated the
// dominant process's share. The correct residual owner is the last
// process with positive weight.
func (p *Pool) pickProcess() int {
	x := p.rng.Float64()
	acc := 0.0
	last := 0
	for i, pr := range p.procs {
		if pr.weight <= 0 {
			continue
		}
		acc += pr.weight
		if x < acc {
			return i
		}
		last = i
	}
	return last
}

// Source draws the network-level identity for one probe sent at time t.
func (p *Pool) Source(t time.Time) ProbeSource {
	ip := p.pickIP()
	proc := p.pickProcess()
	elapsed := t.Sub(p.start).Seconds()
	ts := uint32(uint64(p.procs[proc].offset) + uint64(p.procs[proc].rate*elapsed))

	// Source ports: ~90% from the default Linux ephemeral range
	// 32768–60999; the rest spread over 1212–65535 inclusive (Figure 5:
	// the observed minimum was 1212, never below 1024, and the tail
	// reaches all the way to 65535).
	var port int
	if p.rng.Float64() < 0.90 {
		port = 32768 + p.rng.Intn(61000-32768)
	} else {
		port = nonEphemeralPortMin + p.rng.Intn(nonEphemeralPortMax-nonEphemeralPortMin+1)
	}

	return ProbeSource{
		IP:      ip.addr,
		ASN:     ip.asn,
		Port:    port,
		TTL:     46 + p.rng.Intn(5), // §3.4: TTLs stay within 46–50
		IPID:    uint16(p.rng.Intn(1 << 16)),
		TSval:   ts,
		Process: proc,
	}
}

// Endpoint converts a source to a netsim endpoint.
func (s ProbeSource) Endpoint() netsim.Endpoint {
	return netsim.Endpoint{IP: s.IP, Port: s.Port}
}
