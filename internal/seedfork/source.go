package seedfork

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// math/rand's additive lagged Fibonacci generator: each value is the
// sum of two register words rngTap apart, written back over the first.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// LazyDraws is how many values a Source draws before it builds its
// register: a State carries a Register exactly when its Draws exceed
// it.
const LazyDraws = rngTap

// pow48271[s] is 48271^s mod (2³¹−1). math/rand seeds its register by
// stepping x ← 48271·x mod (2³¹−1) from the seed, so step s is
// seed·pow48271[s], and register word k uses steps 21+3k to 23+3k.
var pow48271 = func() (t [3*rngLen + 21]uint64) {
	t[0] = 1
	for s := 1; s < len(t); s++ {
		t[s] = t[s-1] * 48271 % int32max
	}
	return t
}()

// Source draws exactly what rand.New(rand.NewSource(seed)) draws,
// method for method, but starts lazily: each of math/rand's first 273
// values adds two register words as seeded, so Source computes those
// words on demand and builds the 607-word register only when draw 274
// needs it. A stream that never draws that far — nearly every
// impaired link's — costs 40 bytes instead of a seeded 4.9 KB
// register. Its state (State, Restore) serializes as a value.
//
// A Source must not be copied after its first draw: a copy would share
// the register. Hold it in a struct that is itself held by pointer.
type Source struct {
	seed    uint64    // the seed reduced as math/rand reduces it: [1, 2³¹−2]
	n       uint64    // values drawn
	reg     *register // nil until draw 274
	readVal uint64    // Read's partially consumed draw
	readPos int8      // bytes of readVal that Read has yet to use
}

// register is math/rand's rngSource state.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// NewSource returns a Source seeded like rand.NewSource(seed).
func NewSource(seed int64) Source {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return Source{seed: uint64(seed)}
}

// Seed resets s to NewSource(seed). It makes *Source a rand.Source, so
// rand.New(&s) can serve the draws Source lacks (NormFloat64, Uint32).
func (s *Source) Seed(seed int64) { *s = NewSource(seed) }

// word returns register word k as math/rand seeds it.
func (s *Source) word(k int) int64 {
	i := 21 + 3*k
	a := s.seed * pow48271[i] % int32max
	b := s.seed * pow48271[i+1] % int32max
	c := s.seed * pow48271[i+2] % int32max
	return int64(a<<40^b<<20^c) ^ rngCooked[k]
}

// Uint64 returns a pseudo-random 64-bit value (rand.Source64).
func (s *Source) Uint64() uint64 {
	if s.reg == nil {
		if s.n < rngTap {
			// Draw i adds the words at feed 333−i and tap 606−i; no
			// earlier draw has written either.
			i := int(s.n)
			s.n++
			return uint64(s.word(rngLen-rngTap-1-i) + s.word(rngLen-1-i))
		}
		s.build()
	}
	s.n++
	return s.reg.next()
}

// build seeds the register and replays the s.n draws already made.
func (s *Source) build() {
	r := &register{feed: rngLen - rngTap}
	for k := range r.vec {
		r.vec[k] = s.word(k)
	}
	r.skip(s.n)
	s.reg = r
}

// next is one step of math/rand's rngSource.Uint64.
func (r *register) next() uint64 {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// step moves tap and feed by up to want (at least 1) draws as one run
// and returns the run's words and the words they add, so that each
// caller sums a run in the loop that consumes it: draw k of the run is
// run[i] + src[i] with i = len(run)-1-k, which the caller writes back
// to run[i]. The two slices are equally long; a caller reslices src to
// len(run) so the compiler drops src[i]'s bounds check. A run stops
// before tap or feed would wrap and is at most rngTap draws long. Feed
// is always 334 words past tap, mod 607, so a run of k ≤ 273 draws
// reads words [tap−k, tap) and writes words [feed−k, feed): whether
// feed sits 334 above tap or 273 below it, the two ranges are
// disjoint, no word the run writes is one it reads, and the sums may
// be taken in any order.
//
//sslab:hotpath
func (r *register) step(want int) (run, src []int64) {
	tap, feed := r.tap, r.feed
	if tap == 0 {
		tap = rngLen
	}
	if feed == 0 {
		feed = rngLen
	}
	k := min(want, tap, feed, rngTap)
	r.tap, r.feed = tap-k, feed-k
	return r.vec[feed-k : feed], r.vec[tap-k : tap]
}

// skip makes n steps of next, a run at a time.
func (r *register) skip(n uint64) {
	for n > 0 {
		run, src := r.step(int(min(n, rngTap)))
		src = src[:len(run)]
		for i := range run {
			run[i] += src[i]
		}
		n -= uint64(len(run))
	}
}

// Int63 returns a non-negative pseudo-random 63-bit value (rand.Source).
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Int63n is rand.(*Rand).Int63n: a value in [0, n); it panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // a power of two: mask
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Intn is rand.(*Rand).Intn: a value in [0, n); it panics if n <= 0.
// Up to 2³¹−1 it takes Int31n's path, whose draws are Int63()>>32.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(s.Int63n(int64(n)))
	}
	m := int32(n)
	if m&(m-1) == 0 { // a power of two: mask
		return int(int32(s.Int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return int(v % m)
}

// Float64 is rand.(*Rand).Float64: a value in [0, 1), drawn again when
// the division rounds up to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// SkipIntn advances s exactly as count calls of Intn(n) would, for
// 0 < n ≤ 2³¹−1, rejection redraws included, without reducing any
// value. It panics if n is outside that range. Once the register is
// built it steps a run of draws at a time, one per call still due,
// and then as many more as the run rejected.
//
//sslab:hotpath
func (s *Source) SkipIntn(n, count int) {
	if n <= 0 || n > int32max {
		panic("invalid argument to SkipIntn")
	}
	if count <= 0 {
		return
	}
	if n&(n-1) == 0 { // a power of two: one draw per call
		s.Skip(uint64(count))
		return
	}
	// Intn draws again while Int63()>>32, bits 62..32, exceeds bound.
	bound := uint64(1<<31 - 1 - (1<<31)%uint32(n))
	for ; s.reg == nil; count-- { // lazy: until draw 274 builds the register
		if count == 0 {
			return
		}
		for s.Uint64()<<1>>33 > bound {
		}
	}
	for count > 0 {
		run, src := s.reg.step(count)
		src = src[:len(run)]
		s.n += uint64(len(run))
		count -= len(run)
		for i := range run {
			x := run[i] + src[i]
			run[i] = x
			if uint64(x)<<1>>33 > bound {
				count++
			}
		}
	}
}

// Pick sets dst[i] = from[Intn(len(from))] for each i in turn, making
// exactly the draws those Intn calls would, rejection redraws
// included. It panics if from is empty or longer than 2³¹−1. Once the
// register is built it steps a run of draws at a time, one per byte
// still due.
//
//sslab:hotpath
func (s *Source) Pick(dst, from []byte) {
	n := len(from)
	if n == 0 || n > int32max {
		panic("invalid argument to Pick")
	}
	i := 0
	for ; i < len(dst) && s.reg == nil; i++ {
		dst[i] = from[s.Intn(n)]
	}
	// Intn reduces v = Int63()>>32 modulo n, drawing again while v
	// exceeds bound; for a power of two it masks, which is the same
	// remainder, and bound is 2³¹−1. v mod n is the high word of
	// (m·v mod 2⁶⁴)·n with m = ⌈2⁶⁴/n⌉, exact for v and n below 2³²
	// (Lemire, Kaser & Kurz 2019), and cheaper than a division.
	bound := uint64(1<<31 - 1 - (1<<31)%uint32(n))
	m := ^uint64(0)/uint64(n) + 1
	for i < len(dst) {
		run, src := s.reg.step(len(dst) - i)
		src = src[:len(run)]
		s.n += uint64(len(run))
		for k := len(run) - 1; k >= 0; k-- {
			x := run[k] + src[k]
			run[k] = x
			if v := uint64(x) << 1 >> 33; v <= bound {
				j, _ := bits.Mul64(m*v, uint64(n))
				dst[i] = from[j]
				i++
			}
		}
	}
}

// Read is rand.(*Rand).Read: the little-endian bytes of successive
// draws, seven per draw, with the unused rest of the last draw carried
// to the next call. Once the register is built, the draws whose bytes
// all land in p come a run at a time. It always returns len(p), nil.
//
//sslab:hotpath
func (s *Source) Read(p []byte) (int, error) {
	pos, val := s.readPos, s.readVal
	i := 0
	for ; i < len(p) && pos > 0; i++ {
		p[i] = byte(val)
		val >>= 8
		pos--
	}
	// Whole draws: store all eight bytes of each at once, seven bytes
	// apart; the next store, or the tail below, overwrites the eighth.
	// Once the w whole draws are stored, 1 to 7 bytes are left, so the
	// tail draws the value it carries.
	w := (len(p) - i - 1) / 7
	for ; w > 0 && s.reg == nil; w-- {
		binary.LittleEndian.PutUint64(p[i:], s.Uint64())
		i += 7
	}
	for w > 0 {
		run, src := s.reg.step(w)
		src = src[:len(run)]
		s.n += uint64(len(run))
		w -= len(run)
		for k := len(run) - 1; k >= 0; k-- {
			x := run[k] + src[k]
			run[k] = x
			binary.LittleEndian.PutUint64(p[i:], uint64(x))
			i += 7
		}
	}
	for ; i < len(p); i++ {
		if pos == 0 {
			val, pos = s.Uint64(), 7
		}
		p[i] = byte(val)
		val >>= 8
		pos--
	}
	s.readPos, s.readVal = pos, val
	return len(p), nil
}

// Discard advances s exactly as a Read of n bytes would, carry
// included, without writing the bytes: the bytes still due in the
// carry first, then whole draws by Skip, then the draw whose unused
// rest the carry keeps. It panics if n is negative.
//
//sslab:hotpath
func (s *Source) Discard(n int) {
	if n < 0 {
		panic("invalid argument to Discard")
	}
	if n <= int(s.readPos) {
		s.readVal >>= 8 * uint(n)
		s.readPos -= int8(n)
		return
	}
	// The other n−readPos bytes come from w whole draws and a tail draw
	// of which t = 1 to 7 bytes are used and the rest is carried.
	n -= int(s.readPos)
	w := (n - 1) / 7
	s.Skip(uint64(w))
	t := n - 7*w
	s.readVal, s.readPos = s.Uint64()>>(8*uint(t)), int8(7-t)
}

// State is a Source's serializable stream state.
type State struct {
	Draws   uint64 // values drawn since seeding
	ReadVal uint64 // Read's partially consumed draw
	ReadPos int8   // bytes of ReadVal that Read has yet to use
	// Register is a copy of the 607 register words once the stream has
	// built them (after draw 273); nil while the stream is lazy.
	Register []int64
}

// State returns a copy of s's stream state.
func (s *Source) State() State {
	st := State{Draws: s.n, ReadVal: s.readVal, ReadPos: s.readPos}
	if s.reg != nil {
		st.Register = append([]int64(nil), s.reg.vec[:]...)
	}
	return st
}

// Skip advances s by n draws, as if n values had been drawn and
// discarded. A stream that ends within its first 273 draws stays lazy.
func (s *Source) Skip(n uint64) {
	s.n += n
	if s.reg == nil {
		if s.n > rngTap {
			s.build() // replays all s.n draws
		}
		return
	}
	s.reg.skip(n)
}

// Restore moves s to state st of its seed's stream. A register is
// copied back, so the cost is the same at any position; without one
// (a lazy stream, or a state saved before registers were captured) s
// is reseeded and fast-forwarded. It rejects a Read carry no stream
// reaches — after any Read, ReadPos is in [0, 6] and ReadVal holds at
// most ReadPos+1 bytes — and a register that is not 607 words or
// comes with 273 draws or fewer.
func (s *Source) Restore(st State) error {
	if st.ReadPos < 0 || st.ReadPos > 6 || st.ReadVal>>(8*uint(st.ReadPos)+8) != 0 {
		return fmt.Errorf("seedfork: read carry %#x with %d bytes left is not one a stream can reach", st.ReadVal, st.ReadPos)
	}
	if st.Register != nil && (len(st.Register) != rngLen || st.Draws <= rngTap) {
		return fmt.Errorf("seedfork: a register of %d words after %d draws is not one a stream can reach", len(st.Register), st.Draws)
	}
	*s = Source{seed: s.seed, readVal: st.ReadVal, readPos: st.ReadPos}
	if st.Register == nil {
		s.Skip(st.Draws)
		return nil
	}
	// build starts at tap 0 and feed 334, and every draw steps both
	// back by one.
	back := int(st.Draws % rngLen)
	r := &register{tap: (rngLen - back) % rngLen, feed: (2*rngLen - rngTap - back) % rngLen}
	copy(r.vec[:], st.Register)
	s.n, s.reg = st.Draws, r
	return nil
}
