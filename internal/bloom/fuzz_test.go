package bloom

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzFilterMatchesBitArray runs a stream of keys through a Filter and a
// PingPong of capacity 1–4,096 at a false-positive rate of 1e-3 or 1e-6,
// test then add for each key, against plain bit arrays: one for the
// Filter, and two that rotate like the pair. Every answer must match, and
// at the end each State must equal the arrays' nonzero words and survive
// a restore. Each key is the stream's next byte, whose low four bits give
// the key's length, followed by that many bytes; when that byte's top bit
// is set, both filters are first replaced by a restore of their State, so
// restored position tables must grow and switch to the dense array as
// built ones do.
func FuzzFilterMatchesBitArray(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	stream := make([]byte, 2000)
	rng.Read(stream)
	f.Add(uint16(0), false, []byte{})
	f.Add(uint16(2999), true, stream)
	f.Add(uint16(4095), false, stream)
	f.Add(uint16(6), false, append(stream[:300:300], stream[:300]...))
	f.Fuzz(func(t *testing.T, c uint16, coarse bool, stream []byte) {
		capacity, fp := 1+int(c%4096), 1e-6
		if coarse {
			fp = 1e-3
		}
		flt, pp := New(capacity, fp), NewPingPong(capacity, fp)
		nwords := (flt.nbits + 63) / 64
		ref := make([]uint64, nwords)
		gens := [2][]uint64{make([]uint64, nwords), make([]uint64, nwords)}
		var count [2]int
		cur := 0
		for len(stream) > 0 {
			head := stream[0]
			n := min(1+int(head%16), len(stream))
			data := stream[1:n]
			stream = stream[n:]
			if head&0x80 != 0 {
				flt, pp = restored(t, flt, pp)
			}

			if got, want := has(flt, data), refHas(flt, ref, data); got != want {
				t.Fatalf("Filter (%s) answers %v, the bit array %v", form(flt), got, want)
			}
			flt.Add(data)
			refSet(flt, ref, data)

			want := refHas(flt, gens[0], data) || refHas(flt, gens[1], data)
			if got := pp.TestAndAdd(data); got != want {
				t.Fatalf("PingPong (%s/%s) answers %v, the rotating arrays %v", form(pp.gen[0]), form(pp.gen[1]), got, want)
			}
			if !want {
				if count[cur] >= capacity {
					cur = 1 - cur
					clear(gens[cur])
					count[cur] = 0
				}
				refSet(flt, gens[cur], data)
				count[cur]++
			}
		}
		if !slices.Equal(flt.State().Words, nonzero(ref)) {
			t.Fatalf("Filter (%s) state differs from the bit array", form(flt))
		}
		st := pp.State()
		for i, g := range gens {
			if !slices.Equal(st.Gen[i].Words, nonzero(g)) || st.Gen[i].Entries != count[i] {
				t.Fatalf("PingPong generation %d (%s) state differs from its array", i, form(pp.gen[i]))
			}
		}
		if st.Current != cur {
			t.Fatalf("PingPong current %d, the arrays' %d", st.Current, cur)
		}
		restored(t, flt, pp)
	})
}

// restored returns restores of f's and p's states, failing t unless each
// restore captures the same state again.
func restored(t *testing.T, f *Filter, p *PingPong) (*Filter, *PingPong) {
	t.Helper()
	rf, err := RestoreFilter(f.State())
	if err != nil {
		t.Fatalf("restore Filter: %v", err)
	}
	rp, err := RestorePingPong(p.State())
	if err != nil {
		t.Fatalf("restore PingPong: %v", err)
	}
	st, rst := p.State(), rp.State()
	if !sameState(rf.State(), f.State()) || !sameState(rst.Gen[0], st.Gen[0]) ||
		!sameState(rst.Gen[1], st.Gen[1]) || rst.Current != st.Current {
		t.Fatal("a restore captures a different state")
	}
	return rf, rp
}
