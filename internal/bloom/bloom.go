// Package bloom implements the Bloom filter Shadowsocks-libev uses (as
// "ppbloom") to remember the IVs and salts of past connections, the basis
// of its replay defense analyzed in §5.3 of the paper.
//
// Like ppbloom, the filter is a ping-pong pair of sub-filters so that it
// can run forever in bounded memory: once the active sub-filter reaches its
// capacity, insertion switches to the other one and the old one is cleared
// after the new one also fills. A consequence — exploited conceptually by
// long-delay replays (Figure 7 shows replays after 570 hours) — is that
// sufficiently old entries are eventually forgotten.
package bloom

import "math"

// Filter is a single Bloom filter with double-hashing (Kirsch–Mitzenmacher)
// index derivation.
type Filter struct {
	bits    []uint64
	nbits   uint64
	k       int
	entries int
	cap     int
}

// New creates a Bloom filter sized for capacity entries at the given
// false-positive rate.
func New(capacity int, fpRate float64) *Filter {
	if capacity < 1 {
		capacity = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 1e-6
	}
	m := uint64(math.Ceil(-float64(capacity) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(capacity) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Filter{
		bits:  make([]uint64, (m+63)/64),
		nbits: m,
		k:     k,
		cap:   capacity,
	}
}

// hashes derives data's double-hashing pair: bit i of k is
// (a + i·b) mod nbits. a is the 64-bit FNV-1a hash of data, b the
// FNV-1a hash of a's little-endian bytes followed by data, forced odd
// so the stride cycles. Both are computed inline, so no hash.Hash64 is
// built per call.
func hashes(data []byte) (a, b uint64) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	a = offset64
	for _, c := range data {
		a ^= uint64(c)
		a *= prime64
	}
	b = offset64
	for i := 0; i < 64; i += 8 {
		b ^= a >> i & 0xff
		b *= prime64
	}
	for _, c := range data {
		b ^= uint64(c)
		b *= prime64
	}
	return a, b | 1
}

// Add inserts data into the filter.
//
//sslab:hotpath
func (f *Filter) Add(data []byte) { f.add(hashes(data)) }

func (f *Filter) add(a, b uint64) {
	for i := 0; i < f.k; i++ {
		j := (a + uint64(i)*b) % f.nbits
		f.bits[j/64] |= 1 << (j % 64)
	}
	f.entries++
}

// test reports whether the data hashing to (a, b) may have been added
// (with the configured false-positive probability) — false means
// definitely never added.
func (f *Filter) test(a, b uint64) bool {
	for i := 0; i < f.k; i++ {
		j := (a + uint64(i)*b) % f.nbits
		if f.bits[j/64]&(1<<(j%64)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of entries added since creation or the last Reset.
func (f *Filter) Len() int { return f.entries }

// Cap returns the design capacity.
func (f *Filter) Cap() int { return f.cap }

// Reset clears the filter.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.entries = 0
}

// PingPong is the two-generation wrapper (ppbloom). Insertions go to the
// current generation; lookups consult both. When the current generation
// fills, the stale one is cleared and becomes current.
type PingPong struct {
	gen     [2]*Filter
	current int
}

// NewPingPong creates a ping-pong filter pair, each generation sized for
// capacity entries.
func NewPingPong(capacity int, fpRate float64) *PingPong {
	return &PingPong{gen: [2]*Filter{New(capacity, fpRate), New(capacity, fpRate)}}
}

// add inserts the data hashing to (a, b), rotating generations when
// the current one is full.
func (p *PingPong) add(a, b uint64) {
	cur := p.gen[p.current]
	if cur.Len() >= cur.Cap() {
		p.current = 1 - p.current
		p.gen[p.current].Reset()
		cur = p.gen[p.current]
	}
	cur.add(a, b)
}

// test reports whether the data hashing to (a, b) may be present in
// either generation.
func (p *PingPong) test(a, b uint64) bool {
	return p.gen[0].test(a, b) || p.gen[1].test(a, b)
}

// TestAndAdd atomically tests then adds; it returns whether data may
// have been present before. This is the exact operation a replay filter
// needs per connection. It hashes data once for both generations and
// the insertion.
//
//sslab:hotpath
func (p *PingPong) TestAndAdd(data []byte) bool {
	a, b := hashes(data)
	if p.test(a, b) {
		return true
	}
	p.add(a, b)
	return false
}

// Len returns the total live entries across generations.
func (p *PingPong) Len() int { return p.gen[0].Len() + p.gen[1].Len() }
