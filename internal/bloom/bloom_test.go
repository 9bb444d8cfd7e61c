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

// refSet sets the bits refIndexes names for data in w, a plain bit
// array sized like f.
func refSet(f *Filter, w []uint64, data []byte) {
	for _, j := range refIndexes(f, data) {
		w[j/64] |= 1 << (j % 64)
	}
}

// refHas is the lookup on the plain bit array w.
func refHas(f *Filter, w []uint64, data []byte) bool {
	for _, j := range refIndexes(f, data) {
		if w[j/64]&(1<<(j%64)) == 0 {
			return false
		}
	}
	return true
}

// nonzero lists w's nonzero words, as State writes them.
func nonzero(w []uint64) []WordState {
	var out []WordState
	for i, x := range w {
		if x != 0 {
			out = append(out, WordState{Index: uint32(i), Word: x})
		}
	}
	return out
}

// sameState reports whether two captured states are equal.
func sameState(a, b FilterState) bool {
	return a.NBits == b.NBits && a.K == b.K && a.Entries == b.Entries && a.Cap == b.Cap &&
		slices.Equal(a.Words, b.Words)
}

// form names the store that holds f's bits.
func form(f *Filter) string {
	switch {
	case f.bits != nil:
		return "dense"
	case f.pos != nil:
		return "table"
	}
	return "empty"
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
		want := make([]uint64, (f.nbits+63)/64)
		for i := 0; i < 2000; i++ {
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			f.Add(data)
			refSet(f, want, data)
		}
		if !slices.Equal(f.State().Words, nonzero(want)) {
			t.Errorf("k = %d: bits differ from the hash/fnv derivation", c.k)
		}
	}
}

// TestStorageFormsMatchReference adds keys one at a time, through the
// position table and past the switch to the dense array. After every add
// each answer, for the keys added and for keys never added, equals the
// plain bit array's; State writes the array's nonzero words; and a
// restore of that state has the same form, state and answers. A second
// filter, restored after the first add, takes the same keys: its table
// starts sized from one key's bits and must double its way to the switch.
func TestStorageFormsMatchReference(t *testing.T) {
	for _, fp := range []float64{1e-3, 1e-6} {
		f := New(3000, fp)
		if form(f) != "empty" || has(f, key(0)) {
			t.Fatalf("fp %g: a new filter is %s", fp, form(f))
		}
		ref := make([]uint64, (f.nbits+63)/64)
		var g *Filter
		forms := map[string]int{}
		absent := 1 << 20
		for i := 0; i < 80; i++ {
			f.Add(key(i))
			refSet(f, ref, key(i))
			if g == nil {
				var err error
				if g, err = RestoreFilter(f.State()); err != nil {
					t.Fatal(err)
				}
			} else {
				g.Add(key(i))
			}
			st := f.State()
			if !slices.Equal(st.Words, nonzero(ref)) || st.Entries != i+1 {
				t.Fatalf("fp %g, %d keys (%s): state differs from the bit array", fp, i+1, form(f))
			}
			r, err := RestoreFilter(st)
			if err != nil {
				t.Fatal(err)
			}
			if form(r) != form(f) || !sameState(r.State(), st) || !sameState(g.State(), st) {
				t.Fatalf("fp %g, %d keys: restored %s/%s, filter %s, or states differ", fp, i+1, form(r), form(g), form(f))
			}
			for q := 0; q < i+1+200; q++ {
				data := key(q)
				if q > i {
					data = key(absent + q)
				}
				want := refHas(f, ref, data)
				if has(f, data) != want || has(r, data) != want || has(g, data) != want {
					t.Fatalf("fp %g, %d keys (%s): key %d answers differ from the bit array", fp, i+1, form(f), q)
				}
			}
			forms[form(f)]++
		}
		if forms["table"] == 0 || forms["dense"] == 0 || form(g) != "dense" {
			t.Errorf("fp %g: forms seen %v, second filter ends %s; want table then dense", fp, forms, form(g))
		}
	}
}

// TestResetDropsStorage: a rotation resets the stale generation to no
// storage before its first add, so the new current generation holds one
// entry in a fresh table; PingPong.Reset leaves both generations empty
// at their own sizing.
func TestResetDropsStorage(t *testing.T) {
	p := NewPingPong(1000, 1e-3)
	for i := 0; i < 1000; i++ {
		p.add(hashes(key(i)))
	}
	if p.current != 0 || form(p.gen[0]) != "dense" || form(p.gen[1]) != "empty" {
		t.Fatalf("after 1000 adds: current %d, generations %s/%s", p.current, form(p.gen[0]), form(p.gen[1]))
	}
	for i := 1000; i < 2001; i++ {
		p.add(hashes(key(i)))
	}
	// The 2001st key rotated back to generation 0, resetting it first.
	ref := make([]uint64, (p.gen[0].nbits+63)/64)
	refSet(p.gen[0], ref, key(2000))
	g := p.gen[0]
	if p.current != 0 || g.Len() != 1 || form(g) != "table" || len(g.pos) != tableSlots(g.nbits) ||
		!slices.Equal(g.State().Words, nonzero(ref)) {
		t.Errorf("rotated generation: current %d, %d entries, %s of %d slots", p.current, g.Len(), form(g), len(g.pos))
	}
	p.Reset()
	for i, g := range p.gen {
		if form(g) != "empty" || g.Len() != 0 || g.Cap() != 1000 {
			t.Errorf("after Reset generation %d is %s with %d of %d entries", i, form(g), g.Len(), g.Cap())
		}
	}
	if p.current != 0 || p.TestAndAdd(key(2000)) {
		t.Error("after Reset the pair still remembers a key")
	}
}

// TestNoAllocs: at k = 20, the replay filter's setting, Add and
// TestAndAdd allocate nothing once a generation holds an entry, in the
// position table and in the dense array alike: only a generation's first
// add (its table, here in AllocsPerRun's warm-up call) and its switch to
// the dense array allocate.
func TestNoAllocs(t *testing.T) {
	table, dense := New(1<<16, 1e-6), New(1000, 1e-6)
	p := NewPingPong(1<<16, 1e-6)
	if table.k != 20 || dense.k != 20 {
		t.Fatalf("k = %d and %d, want 20", table.k, dense.k)
	}
	for i := 0; i < 100; i++ {
		dense.Add(key(i))
	}
	data := make([]byte, 32)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Filter.Add (table)", func() { table.Add(data) }},
		{"Filter.Add (dense)", func() { dense.Add(data) }},
		{"PingPong.TestAndAdd", func() { p.TestAndAdd(data) }},
	} {
		if a := testing.AllocsPerRun(100, func() { data[0]++; c.fn() }); a != 0 {
			t.Errorf("%s: %v allocs per call", c.name, a)
		}
	}
	if form(table) != "table" || form(dense) != "dense" || form(p.gen[0]) != "table" {
		t.Errorf("forms %s, %s, %s; want table, dense, table", form(table), form(dense), form(p.gen[0]))
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
