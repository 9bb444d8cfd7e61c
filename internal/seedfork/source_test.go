package seedfork

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// identitySeeds are the seeds TestSourceMatchesMathRand draws from:
// every edge of math/rand's seed reduction (0, negatives, multiples of
// 2³¹−1, the value 0 maps to, the int64 extremes) plus forked seeds
// spread over the whole int64 range.
func identitySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 7, 42,
		int32max, -int32max, 2 * int32max, -3 * int32max, int32max - 1, int32max + 1, -int32max + 1,
		89482311, -89482311, int32max + 89482311,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 40, -(1 << 40),
	}
	for i := int64(0); len(seeds) < 210; i++ {
		seeds = append(seeds, Fork(1, "seedfork.identity", i))
	}
	return seeds
}

// pickFrom is what drawBoth's Pick calls pick from: prefixes of every
// length up to 300 and its whole 4,186,128 bytes, a length at which
// Intn rejects one draw in 513 ((2³¹ mod n)/2³¹), so Pick's redraws
// happen too.
var pickFrom = func() []byte {
	b := make([]byte, 4_186_128)
	for i := range b {
		b[i] = byte(i ^ i>>8 ^ i>>16)
	}
	return b
}()

// callKinds is the number of kinds of call drawBoth makes.
const callKinds = 13

// drawBoth makes one call, of the given kind and with arguments taken
// from a and b, on a Source and on the math/rand reference, and fails
// on any difference. The kinds cover Intn at powers of two, at odd n
// and above 2³¹−1, Int63n likewise, Read calls of uneven length, from
// a few bytes to about 2,000, so the carry crosses calls, Discard of
// as many bytes against a Read whose bytes are thrown away, followed
// by the next draw and a 7-byte Read that spans the carry, SkipIntn
// against as many Intn calls and Pick against one Intn per byte, each
// for up to 1,023 calls and, for both, at n where many draws are
// rejected, and a State/Restore round trip into a fresh Source, with
// and without the register. For a bulk call (Read, Discard, SkipIntn,
// Pick) it returns the method's name and whether the call drew again
// for a rejected value.
func drawBoth(t *testing.T, seed int64, step, kind int, a, b uint64, s *Source, ref *rand.Rand) (bulk string, rejected bool) {
	t.Helper()
	var got, want any
	switch kind {
	case 0:
		got, want = s.Uint64(), ref.Uint64()
	case 1:
		got, want = s.Int63(), ref.Int63()
	case 2:
		got, want = s.Float64(), ref.Float64()
	case 3:
		n := 1 << (a % 31)
		got, want = s.Intn(n), ref.Intn(n)
	case 4:
		n := 1 + 2*int(a%(1<<20))
		got, want = s.Intn(n), ref.Intn(n)
	case 5:
		n := 1<<31 + int(a%(1<<40))
		got, want = s.Intn(n), ref.Intn(n)
	case 6:
		n := int64(a%4e7) + 1
		if b%4 == 0 {
			n = 1 << (a % 63)
		}
		got, want = s.Int63n(n), ref.Int63n(n)
	case 7:
		n := readLen(a, b)
		p, q := make([]byte, n), make([]byte, n)
		s.Read(p)
		ref.Read(q)
		got, want, bulk = hex.EncodeToString(p), hex.EncodeToString(q), "Read"
	case 8:
		got, want = rand.New(s).NormFloat64(), ref.NormFloat64()
	case 9:
		n := []int{1 << (a % 31), 1 + 2*int(a%(1<<20)), 1<<30 + 1 + int(a%(1<<30-1))}[b%3]
		count := bulkCount(b)
		before := s.n
		s.SkipIntn(n, count)
		for range count {
			ref.Intn(n)
		}
		got, want = s.Uint64(), ref.Uint64()
		bulk, rejected = "SkipIntn", s.n-before-1 > uint64(count)
	case 10:
		from := pickFrom[:[]int{1 << (a % 9), 1 + int(a%300), len(pickFrom)}[b%3]]
		p, q := make([]byte, bulkCount(b)), make([]byte, bulkCount(b))
		before := s.n
		s.Pick(p, from)
		for i := range q {
			q[i] = from[ref.Intn(len(from))]
		}
		got, want = hex.EncodeToString(p), hex.EncodeToString(q)
		bulk, rejected = "Pick", s.n-before > uint64(len(p))
	case 11:
		st := s.State()
		if b%4 == 0 {
			st.Register = nil // restored by reseeding and replaying
		}
		*s = NewSource(seed)
		if err := s.Restore(st); err != nil {
			t.Fatalf("seed %d, step %d: restoring %d draws: %v", seed, step, st.Draws, err)
		}
		got, want = s.Uint64(), ref.Uint64()
	case 12:
		n := readLen(a, b)
		s.Discard(n)
		ref.Read(make([]byte, n))
		// The next draw checks the position, and a 7-byte Read the carry.
		p, q := make([]byte, 8+7), make([]byte, 8+7)
		binary.LittleEndian.PutUint64(p, s.Uint64())
		binary.LittleEndian.PutUint64(q, ref.Uint64())
		s.Read(p[8:])
		ref.Read(q[8:])
		got, want, bulk = hex.EncodeToString(p), hex.EncodeToString(q), "Discard"
	}
	if got != want {
		t.Fatalf("seed %d, step %d, call kind %d (%d, %d): Source drew %v, math/rand %v", seed, step, kind, a, b, got, want)
	}
	return bulk, rejected
}

// readLen is how many bytes a Read or Discard in drawBoth takes:
// mostly fewer than 40, one time in four up to 2,047.
func readLen(a, b uint64) int {
	if b%4 == 0 {
		return int(a % 2048)
	}
	return int(b % 40)
}

// bulkCount is how many calls a SkipIntn or Pick in drawBoth stands
// for: mostly fewer than 40, one time in five up to 1,023.
func bulkCount(b uint64) int {
	if b%5 == 0 {
		return int(b % 1024)
	}
	return int(b % 40)
}

// TestSourceMatchesMathRand draws every Source method against
// rand.New(rand.NewSource(seed)) over 210 seeds and mixed streams that
// run past the lazy phase (273 draws) and through six wraps of the
// 607-word register, and requires equal values throughout. Every bulk
// method must also have made a call that began in the lazy phase and
// ended past draw 274, and SkipIntn and Pick calls that drew again for
// rejected values.
func TestSourceMatchesMathRand(t *testing.T) {
	op := rand.New(rand.NewSource(1))
	crossed, rejected := map[string]int{}, map[string]int{}
	for _, seed := range identitySeeds() {
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		for step := 0; s.n < 4000; step++ {
			lazy := s.reg == nil
			bulk, rej := drawBoth(t, seed, step, op.Intn(callKinds), op.Uint64(), op.Uint64(), &s, ref)
			if lazy && s.n > rngTap+1 {
				crossed[bulk]++
			}
			if rej {
				rejected[bulk]++
			}
		}
	}
	for _, bulk := range []string{"Read", "Discard", "SkipIntn", "Pick"} {
		if crossed[bulk] == 0 {
			t.Errorf("no %s call began in the lazy phase and ended past draw %d", bulk, rngTap+1)
		}
		if (bulk == "SkipIntn" || bulk == "Pick") && rejected[bulk] == 0 {
			t.Errorf("no %s call drew again for a rejected value", bulk)
		}
	}
	t.Logf("bulk calls across the lazy phase %v, with rejections %v", crossed, rejected)
}

// FuzzSourceMatchesMathRand decodes its input into up to 64 calls of
// drawBoth — a kind byte, then 4 and 2 little-endian argument bytes —
// and requires a Source of the given seed to draw what math/rand draws
// through all of them, State/Restore round trips included.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{7, 0xff, 7, 0, 0, 4, 0, 10, 0, 0, 0, 0, 0xe7, 3, 11, 0, 0, 0, 0, 1, 0})
	f.Add(int64(-7), []byte{9, 0xff, 0xff, 0xff, 0xff, 0xe5, 3, 11, 0, 0, 0, 0, 4, 0, 10, 1, 0, 0, 0, 0xe1, 3})
	f.Add(int64(int32max), []byte{10, 0, 0, 0, 0, 0xe4, 3, 9, 5, 0, 0, 0, 0xe5, 3, 7, 0, 0, 0, 0, 0xe4, 3})
	f.Fuzz(func(t *testing.T, seed int64, calls []byte) {
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		for step := 0; len(calls) >= 7 && step < 64; step++ {
			kind := int(calls[0]) % callKinds
			a := uint64(binary.LittleEndian.Uint32(calls[1:]))
			b := uint64(binary.LittleEndian.Uint16(calls[5:]))
			calls = calls[7:]
			drawBoth(t, seed, step, kind, a, b, &s, ref)
		}
	})
}

// readBytewise is Read as math/rand writes it, one byte at a time.
func readBytewise(s *Source, p []byte) {
	for i := range p {
		if s.readPos == 0 {
			s.readVal, s.readPos = s.Uint64(), 7
		}
		p[i] = byte(s.readVal)
		s.readVal >>= 8
		s.readPos--
	}
}

// TestSourceReadState runs three sources of one seed in lockstep, one
// through Read's whole-draw stores, one through Discard and one
// through a bytewise Read, across draws 273, 274 and 607, and requires
// equal bytes from the two Reads and equal State — the carry that
// math/rand keeps private — from all three after every call.
func TestSourceReadState(t *testing.T) {
	op := rand.New(rand.NewSource(2))
	for _, seed := range identitySeeds()[:40] {
		fast, discard, ref := NewSource(seed), NewSource(seed), NewSource(seed)
		for step := 0; ref.n < 1500; step++ {
			n := op.Intn(60)
			a, b := make([]byte, n), make([]byte, n)
			fast.Read(a)
			discard.Discard(n)
			readBytewise(&ref, b)
			if !bytes.Equal(a, b) || !reflect.DeepEqual(fast.State(), ref.State()) {
				t.Fatalf("seed %d, step %d: Read wrote %x, state %+v; bytewise %x, %+v",
					seed, step, a, fast.State(), b, ref.State())
			}
			if !reflect.DeepEqual(discard.State(), ref.State()) {
				t.Fatalf("seed %d, step %d: Discard(%d) left state %+v; bytewise Read %+v",
					seed, step, n, discard.State(), ref.State())
			}
		}
	}
}

// TestSourceLazyUntilTap pins when the register is built: not for the
// first 273 draws, nor for a Skip that stays within them, and at draw
// 274.
func TestSourceLazyUntilTap(t *testing.T) {
	s := NewSource(5)
	s.Skip(200)
	for s.n < rngTap {
		s.Uint64()
	}
	if s.reg != nil {
		t.Fatalf("register built after %d draws", s.n)
	}
	s.Uint64()
	if s.reg == nil {
		t.Fatal("register not built at draw 274")
	}
	if a := testing.AllocsPerRun(100, func() {
		s := NewSource(9)
		for i := 0; i < 11; i++ {
			s.Float64()
		}
	}); a != 0 {
		t.Errorf("a short lazy stream allocates %v times", a)
	}
}

// TestSourceSeed: Seed restarts the stream, as rand.(*Rand).Seed does.
func TestSourceSeed(t *testing.T) {
	s := NewSource(3)
	s.Skip(1000)
	s.Seed(-77)
	ref := rand.New(rand.NewSource(-77))
	for i := 0; i < 700; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d after Seed: %d, want %d", i, got, want)
		}
	}
}

// TestSourceRestore moves sources to positions on both sides of the
// lazy phase — by Skip on a fresh source, and by Restore on one that
// has already drawn past the target, both from the captured State
// (whose register, from draw 274 on, is copied back) and from the
// State without its register (reseeded and replayed, as a state saved
// before registers were captured is) — and requires each to continue
// exactly as the uninterrupted stream does, Read carry included.
func TestSourceRestore(t *testing.T) {
	const seed = 12345
	for _, pos := range []uint64{0, 272, 273, 274, 606, 1e5} {
		whole := NewSource(seed)
		whole.Skip(pos)
		if pos > 0 {
			// Leave a carry: 3 of the next draw's 7 bytes are consumed.
			whole.Read(make([]byte, 3))
		}
		st := whole.State()
		if (st.Register != nil) != (st.Draws > rngTap) {
			t.Fatalf("state at draw %d: register of %d words", st.Draws, len(st.Register))
		}
		want := make([]byte, 300)
		whole.Read(want)
		wantInt := whole.Intn(1000)

		skipped := NewSource(seed)
		skipped.Skip(st.Draws)
		skipped.readVal, skipped.readPos = st.ReadVal, st.ReadPos

		restored, replayed := NewSource(seed), NewSource(seed)
		restored.Skip(pos + 700)
		replayed.Skip(pos + 700)
		if err := restored.Restore(st); err != nil {
			t.Fatal(err)
		}
		legacy := st
		legacy.Register = nil
		if err := replayed.Restore(legacy); err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Source{"Skip": &skipped, "Restore": &restored, "Restore without register": &replayed} {
			got := make([]byte, 300)
			s.Read(got)
			if !bytes.Equal(got, want) || s.Intn(1000) != wantInt {
				t.Errorf("%s to draw %d: stream diverged from the uninterrupted one", name, st.Draws)
			}
		}
	}
}

// TestSourceRestoreRegister: a state with a register restores from its
// words without replaying the draws behind it. The words a stream holds
// after m draws, restored at 2⁴⁰ draws with 2⁴⁰ ≡ m (mod 607) — so the
// tap and feed positions agree — must continue as that stream does
// after draw m, Read carry included. Replaying 2⁴⁰ draws would take
// hours.
func TestSourceRestoreRegister(t *testing.T) {
	const far = 1 << 40
	m := uint64(rngLen + far%rngLen)
	ref := NewSource(99)
	ref.Skip(m - 1)
	ref.Read(make([]byte, 5)) // draw m, leaving 2 bytes in the carry
	st := ref.State()
	st.Draws = far
	s := NewSource(99)
	if err := s.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		a, b := make([]byte, i%40), make([]byte, i%40)
		s.Read(a)
		ref.Read(b)
		if !bytes.Equal(a, b) || s.Uint64() != ref.Uint64() {
			t.Fatalf("step %d after restoring at draw 2⁴⁰: stream diverged from the words' stream", i)
		}
	}
	if got, want := s.State().Draws, far+ref.State().Draws-m; got != want {
		t.Errorf("restored stream at draw %d, want %d", got, want)
	}
}

// TestSourceRestoreRejectsCarry: a carry no Read leaves behind, a
// register of the wrong length and a register at a draw count that
// has none are errors, not a stream that emits stale bytes.
func TestSourceRestoreRejectsCarry(t *testing.T) {
	for _, st := range []State{
		{Draws: 10, ReadPos: -1},
		{Draws: 10, ReadPos: 7},
		{Draws: 10, ReadVal: 1 << 16, ReadPos: 1},
		{Draws: 10, ReadVal: 1 << 8, ReadPos: 0},
		{Draws: 1000, Register: make([]int64, rngLen-1)},
		{Draws: rngTap, Register: make([]int64, rngLen)},
	} {
		s := NewSource(1)
		if err := s.Restore(st); err == nil {
			t.Errorf("Restore(%d draws, carry %#x/%d, %d-word register) accepted an unreachable state",
				st.Draws, st.ReadVal, st.ReadPos, len(st.Register))
		}
	}
	for _, st := range []State{
		{Draws: 10, ReadVal: 0xffff, ReadPos: 1},
		{Draws: rngTap + 1, Register: make([]int64, rngLen)},
	} {
		s := NewSource(1)
		if err := s.Restore(st); err != nil {
			t.Errorf("Restore rejected a reachable state: %v", err)
		}
	}
}
