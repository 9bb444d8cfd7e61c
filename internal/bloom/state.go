package bloom

// FilterState is a Filter's serializable state. The bit array is
// stored sparsely — (word index, word value) pairs for nonzero words —
// because snapshot-scale filters are mostly empty: a server's nonce
// filter is sized for 65,536 nonces per generation, so dense
// serialization would cost hundreds of kilobytes per server while the
// occupied words fit in a few.
type FilterState struct {
	NBits   uint64
	K       int
	Entries int
	Cap     int
	Words   []WordState
}

// WordState is one nonzero 64-bit word of the sparse bit array.
type WordState struct {
	Index uint32
	Word  uint64
}

// State captures the filter's serializable state.
func (f *Filter) State() FilterState {
	st := FilterState{NBits: f.nbits, K: f.k, Entries: f.entries, Cap: f.cap}
	for i, w := range f.bits {
		if w != 0 {
			st.Words = append(st.Words, WordState{Index: uint32(i), Word: w})
		}
	}
	return st
}

// RestoreFilter reconstructs a Filter from a captured state.
func RestoreFilter(st FilterState) *Filter {
	f := &Filter{
		bits:    make([]uint64, (st.NBits+63)/64),
		nbits:   st.NBits,
		k:       st.K,
		entries: st.Entries,
		cap:     st.Cap,
	}
	for _, w := range st.Words {
		if int(w.Index) < len(f.bits) {
			f.bits[w.Index] = w.Word
		}
	}
	return f
}

// PingPongState is a PingPong pair's serializable state.
type PingPongState struct {
	Gen     [2]FilterState
	Current int
}

// State captures the pair's serializable state.
func (p *PingPong) State() PingPongState {
	return PingPongState{
		Gen:     [2]FilterState{p.gen[0].State(), p.gen[1].State()},
		Current: p.current,
	}
}

// RestorePingPong reconstructs a PingPong pair from a captured state.
func RestorePingPong(st PingPongState) *PingPong {
	return &PingPong{
		gen:     [2]*Filter{RestoreFilter(st.Gen[0]), RestoreFilter(st.Gen[1])},
		current: st.Current & 1,
	}
}
