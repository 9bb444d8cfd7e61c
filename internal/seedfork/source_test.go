package seedfork

import (
	"bytes"
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

// drawBoth applies one randomly chosen method, with a randomly chosen
// argument, to a Source and to the math/rand reference, and fails on
// any difference. The mix covers Intn at powers of two, at odd n and
// above 2³¹−1, Int63n likewise, Read calls of uneven length — up to
// several whole draws — so the carry crosses calls, and SkipIntn
// against as many Intn calls, at n where half the draws are rejected.
func drawBoth(t *testing.T, seed int64, step int, op *rand.Rand, s *Source, ref *rand.Rand) {
	t.Helper()
	var got, want any
	switch k := op.Intn(10); k {
	case 0:
		got, want = s.Uint64(), ref.Uint64()
	case 1:
		got, want = s.Int63(), ref.Int63()
	case 2:
		got, want = s.Float64(), ref.Float64()
	case 3:
		n := 1 << op.Intn(31)
		got, want = s.Intn(n), ref.Intn(n)
	case 4:
		n := 1 + 2*op.Intn(1<<20)
		got, want = s.Intn(n), ref.Intn(n)
	case 5:
		n := 1<<31 + op.Intn(1<<40)
		got, want = s.Intn(n), ref.Intn(n)
	case 6:
		n := op.Int63n(4e7) + 1
		if op.Intn(4) == 0 {
			n = 1 << op.Intn(63)
		}
		got, want = s.Int63n(n), ref.Int63n(n)
	case 7:
		n := op.Intn(40)
		a, b := make([]byte, n), make([]byte, n)
		s.Read(a)
		ref.Read(b)
		got, want = string(a), string(b)
	case 8:
		got, want = rand.New(s).NormFloat64(), ref.NormFloat64()
	case 9:
		n := []int{1 << op.Intn(31), 1 + 2*op.Intn(1<<20), 1<<30 + 1 + op.Intn(1<<30)}[op.Intn(3)]
		count := op.Intn(40)
		s.SkipIntn(n, count)
		for range count {
			ref.Intn(n)
		}
		got, want = s.Uint64(), ref.Uint64()
	}
	if got != want {
		t.Fatalf("seed %d, step %d: Source drew %v, math/rand %v", seed, step, got, want)
	}
}

// TestSourceMatchesMathRand draws every Source method against
// rand.New(rand.NewSource(seed)) over 210 seeds and mixed streams that
// run well past the lazy phase (273 draws) and the register length
// (607), and requires equal values throughout.
func TestSourceMatchesMathRand(t *testing.T) {
	op := rand.New(rand.NewSource(1))
	for _, seed := range identitySeeds() {
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		for step := 0; s.n < 2000; step++ {
			drawBoth(t, seed, step, op, &s, ref)
		}
	}
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

// TestSourceReadState runs two sources of one seed in lockstep, one
// through Read's whole-draw stores, the other through a bytewise Read,
// across draws 273, 274 and 607, and requires equal bytes and equal
// State — the carry that math/rand keeps private — after every call.
func TestSourceReadState(t *testing.T) {
	op := rand.New(rand.NewSource(2))
	for _, seed := range identitySeeds()[:40] {
		fast, ref := NewSource(seed), NewSource(seed)
		for step := 0; ref.n < 1500; step++ {
			n := op.Intn(60)
			a, b := make([]byte, n), make([]byte, n)
			fast.Read(a)
			readBytewise(&ref, b)
			if !bytes.Equal(a, b) || !reflect.DeepEqual(fast.State(), ref.State()) {
				t.Fatalf("seed %d, step %d: Read wrote %x, state %+v; bytewise %x, %+v",
					seed, step, a, fast.State(), b, ref.State())
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
