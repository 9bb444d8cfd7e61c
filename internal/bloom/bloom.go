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
//
// A generation keeps its bits in one of three forms, in this order, and
// every form gives the same answers: nothing before its first add; then
// a table of the positions of its set bits; then, once that table passes
// half load at its full size, the dense bit array. A full table has the
// smallest power of two of slots at least half the array's word count,
// so it costs at most half the array's bytes. A replay filter sized for
// 65,536 nonces thus spends 64 KB instead of 236 KB until it holds about
// 400 nonces. Reset returns a generation to nothing.
package bloom

import (
	"math"
	"math/bits"
)

// Filter is a single Bloom filter with double-hashing (Kirsch–Mitzenmacher)
// index derivation.
//
// Its set bits live in at most one of two stores, and in neither before
// its first add. pos is an open-addressed table, probed linearly, that
// holds bit j as j+1 (0 marks an empty slot); bits is the dense array.
// A table that passes half load doubles until it reaches its full size
// (tableSlots), and a full one that passes half load gives way to the
// dense array, which then stays until Reset. A filter whose positions do
// not fit a uint32 goes dense at its first add.
type Filter struct {
	pos     []uint32
	npos    int
	bits    []uint64
	nbits   uint64
	k       int
	entries int
	cap     int
}

// New creates a Bloom filter sized for capacity entries at the given
// false-positive rate. It allocates no storage for the bits: the first
// add does.
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
	return &Filter{nbits: m, k: k, cap: capacity}
}

// tableSlots is the size of a full position table for nbits bits: the
// smallest power of two at least half the dense array's word count. It
// is 0 when positions do not fit a uint32.
func tableSlots(nbits uint64) int {
	if nbits >= 1<<32 {
		return 0
	}
	return 1 << bits.Len64(((nbits+63)/64-1)/2)
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
	if f.pos == nil && f.bits == nil {
		if n := tableSlots(f.nbits); n > 0 {
			f.pos = make([]uint32, n)
		} else {
			f.bits = make([]uint64, (f.nbits+63)/64)
		}
	}
	for i := 0; i < f.k; i++ {
		j := (a + uint64(i)*b) % f.nbits
		if f.bits != nil {
			f.bits[j/64] |= 1 << (j % 64)
		} else {
			f.insert(uint32(j) + 1)
		}
	}
	f.entries++
}

// insert adds position p, bit p-1, to the table unless it is there.
func (f *Filter) insert(p uint32) {
	if s, ok := find(f.pos, p); !ok {
		f.pos[s] = p
		if f.npos++; f.npos > len(f.pos)/2 {
			f.grow()
		}
	}
}

// find returns the slot of table t that holds position p, or else the
// empty slot where p belongs. t has a power-of-two length and at least
// one empty slot.
func find(t []uint32, p uint32) (slot uint32, ok bool) {
	mask := uint32(len(t) - 1)
	for s := p & mask; ; s = (s + 1) & mask {
		switch t[s] {
		case p:
			return s, true
		case 0:
			return s, false
		}
	}
}

// grow moves the positions of a table past half load into a table twice
// its size, or into the dense array once the table is full-size.
func (f *Filter) grow() {
	old := f.pos
	if n := 2 * len(old); n <= tableSlots(f.nbits) {
		f.pos = make([]uint32, n)
		for _, p := range old {
			if p != 0 {
				s, _ := find(f.pos, p)
				f.pos[s] = p
			}
		}
		return
	}
	f.pos, f.npos = nil, 0
	f.bits = make([]uint64, (f.nbits+63)/64)
	for _, p := range old {
		if p != 0 {
			f.bits[(p-1)/64] |= 1 << ((p - 1) % 64)
		}
	}
}

// test reports whether the data hashing to (a, b) may have been added
// (with the configured false-positive probability) — false means
// definitely never added. A generation with no stored bits answers
// false at once.
func (f *Filter) test(a, b uint64) bool {
	if f.pos == nil && f.bits == nil {
		return false
	}
	for i := 0; i < f.k; i++ {
		j := (a + uint64(i)*b) % f.nbits
		if f.bits != nil {
			if f.bits[j/64]&(1<<(j%64)) == 0 {
				return false
			}
		} else if _, ok := find(f.pos, uint32(j)+1); !ok {
			return false
		}
	}
	return true
}

// Len returns the number of entries added since creation or the last Reset.
func (f *Filter) Len() int { return f.entries }

// Cap returns the design capacity.
func (f *Filter) Cap() int { return f.cap }

// Reset clears the filter and drops its storage.
func (f *Filter) Reset() {
	f.pos, f.npos, f.bits = nil, 0, nil
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

// Reset empties both generations, keeping their sizing, and makes the
// first one current, as re-initializing ppbloom does.
func (p *PingPong) Reset() {
	p.gen[0].Reset()
	p.gen[1].Reset()
	p.current = 0
}
