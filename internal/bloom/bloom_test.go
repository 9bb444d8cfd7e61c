package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// has reports whether f may hold data, by the lookup TestAndAdd runs.
func has(f *Filter, data []byte) bool { return f.test(hashes(data)) }

// TestNoFalseNegatives is the defining Bloom filter property: everything
// added must test positive.
func TestNoFalseNegatives(t *testing.T) {
	f := New(10000, 1e-6)
	for i := 0; i < 10000; i++ {
		f.Add(key(i))
	}
	for i := 0; i < 10000; i++ {
		if !has(f, key(i)) {
			t.Fatalf("false negative for entry %d", i)
		}
	}
}

// TestFalsePositiveRate checks the observed FP rate is within ~4x of the
// configured rate at design capacity.
func TestFalsePositiveRate(t *testing.T) {
	const capacity, rate = 20000, 1e-3
	f := New(capacity, rate)
	for i := 0; i < capacity; i++ {
		f.Add(key(i))
	}
	fp := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if has(f, key(capacity+i)) {
			fp++
		}
	}
	observed := float64(fp) / trials
	if observed > 4*rate {
		t.Errorf("false positive rate %.5f, want <= %.5f", observed, 4*rate)
	}
}

func TestReset(t *testing.T) {
	f := New(100, 1e-6)
	f.Add([]byte("x"))
	if !has(f, []byte("x")) {
		t.Fatal("entry missing before reset")
	}
	f.Reset()
	if has(f, []byte("x")) {
		t.Error("entry survived reset")
	}
	if f.Len() != 0 {
		t.Error("Len nonzero after reset")
	}
}

func TestDegenerateParams(t *testing.T) {
	// Constructor must not panic or produce a broken filter on bad input.
	for _, f := range []*Filter{New(0, 1e-6), New(-5, 0), New(1, 2)} {
		f.Add([]byte("a"))
		if !has(f, []byte("a")) {
			t.Error("degenerate filter lost an entry")
		}
	}
}

// TestPingPongRotation verifies that the ping-pong pair keeps recent
// entries and eventually forgets old ones — the property that makes
// long-delay replays effective against nonce-only filters (§7.2).
func TestPingPongRotation(t *testing.T) {
	p := NewPingPong(100, 1e-6)
	p.add(hashes(key(0)))
	if !p.test(hashes(key(0))) {
		t.Fatal("fresh entry missing")
	}
	// Fill far past two generations.
	for i := 1; i <= 250; i++ {
		p.add(hashes(key(i)))
	}
	if p.test(hashes(key(0))) {
		t.Error("entry 0 should have been forgotten after two rotations")
	}
	if !p.test(hashes(key(250))) {
		t.Error("most recent entry missing")
	}
	if p.Len() > 200 {
		t.Errorf("live entries %d exceed two generations", p.Len())
	}
}

// refIndexes is the bit-position derivation written with hash/fnv:
// a = FNV-1a(data), b = FNV-1a(a's little-endian bytes ‖ data) | 1,
// bit i = (a + i·b) mod nbits.
func refIndexes(f *Filter, data []byte) []uint64 {
	h1 := fnv.New64a()
	h1.Write(data)
	a := h1.Sum64()
	h2 := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], a)
	h2.Write(seed[:])
	h2.Write(data)
	b := h2.Sum64() | 1
	var idx []uint64
	for i := 0; i < f.k; i++ {
		idx = append(idx, (a+uint64(i)*b)%f.nbits)
	}
	return idx
}

// TestBitsMatchReference: the inline hashing sets exactly the bits the
// hash/fnv derivation names, at k = 10 and k = 20, so filters in
// snapshots and every report that depends on them stay unchanged.
func TestBitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range []struct {
		fp float64
		k  int
	}{{1e-3, 10}, {1e-6, 20}} {
		f := New(3000, c.fp)
		if f.k != c.k {
			t.Fatalf("fp %g: k = %d, want %d", c.fp, f.k, c.k)
		}
		want := make([]uint64, len(f.bits))
		for i := 0; i < 2000; i++ {
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			f.Add(data)
			for _, j := range refIndexes(f, data) {
				want[j/64] |= 1 << (j % 64)
			}
		}
		if !slices.Equal(f.bits, want) {
			t.Errorf("k = %d: bits differ from the hash/fnv derivation", c.k)
		}
	}
}

// TestNoAllocs: at k = 20, the replay filter's setting, Add and
// TestAndAdd allocate nothing.
func TestNoAllocs(t *testing.T) {
	f := New(1000, 1e-6)
	p := NewPingPong(1000, 1e-6)
	if f.k != 20 {
		t.Fatalf("k = %d, want 20", f.k)
	}
	data := make([]byte, 32)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Filter.Add", func() { f.Add(data) }},
		{"PingPong.TestAndAdd", func() { p.TestAndAdd(data) }},
	} {
		if a := testing.AllocsPerRun(100, func() { data[0]++; c.fn() }); a != 0 {
			t.Errorf("%s: %v allocs per call", c.name, a)
		}
	}
}

func TestTestAndAdd(t *testing.T) {
	p := NewPingPong(100, 1e-6)
	if p.TestAndAdd([]byte("salt1")) {
		t.Error("first sight reported as replay")
	}
	if !p.TestAndAdd([]byte("salt1")) {
		t.Error("second sight not reported as replay")
	}
}

// TestQuickNoFalseNegatives property-tests arbitrary byte strings.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := New(5000, 1e-4)
	fn := func(data []byte) bool {
		f.Add(data)
		return has(f, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1<<20, 1e-6)
	data := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(data)
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		f.Add(data)
	}
}

func BenchmarkTest(b *testing.B) {
	f := New(1<<20, 1e-6)
	data := make([]byte, 32)
	for i := 0; i < 1<<16; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		f.Add(data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		has(f, data)
	}
}
