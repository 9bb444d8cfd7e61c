package bloom

import (
	"errors"
	"fmt"
	"math/bits"
)

// FilterState is a Filter's serializable state. The bit array is
// stored sparsely — (word index, word value) pairs for nonzero words —
// because snapshot-scale filters are mostly empty: a server's nonce
// filter is sized for 65,536 nonces per generation, so dense
// serialization would cost hundreds of kilobytes per server while the
// occupied words fit in a few. A live Filter keeps the same idea in
// memory: a table of its set bits' positions until it is dense.
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

// State captures the filter's serializable state: its nonzero words in
// ascending order. A filter in table form orders its positions by word
// and folds them into words, without building the dense array.
func (f *Filter) State() FilterState {
	st := FilterState{NBits: f.nbits, K: f.k, Entries: f.entries, Cap: f.cap}
	for i, w := range f.bits {
		if w != 0 {
			st.Words = append(st.Words, WordState{Index: uint32(i), Word: w})
		}
	}
	if f.npos == 0 {
		return st
	}
	js := make([]uint32, 0, f.npos)
	for _, p := range f.pos {
		if p != 0 {
			js = append(js, p-1)
		}
	}
	js = byWord(js, f.nbits)
	st.Words = make([]WordState, 0, len(js))
	for _, j := range js {
		if n := len(st.Words); n > 0 && st.Words[n-1].Index == j/64 {
			st.Words[n-1].Word |= 1 << (j % 64)
		} else {
			st.Words = append(st.Words, WordState{Index: j / 64, Word: 1 << (j % 64)})
		}
	}
	return st
}

// byWord returns the bit positions js, each below nbits, in ascending
// order of word index (j/64): a radix sort of the word index, 8 bits a
// pass, through one scratch slice. It is several times faster than a
// comparison sort of a table's few thousand positions. Positions within
// a word stay in any order, as folding them into the word needs none.
func byWord(js []uint32, nbits uint64) []uint32 {
	tmp := make([]uint32, len(js))
	for shift := 6; (nbits-1)>>shift != 0; shift += 8 {
		var start [257]int
		for _, j := range js {
			start[j>>shift&255+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, j := range js {
			d := j >> shift & 255
			tmp[start[d]] = j
			start[d]++
		}
		js, tmp = tmp, js
	}
	return js
}

// RestoreFilter reconstructs a Filter from a captured state. It refuses
// a state that State never writes: fewer than 64 bits or 2^32 or more
// (positions that do not fit a uint32), K or Cap below 1, negative
// Entries, or words that are zero, not in strictly ascending order or
// set a bit at or past NBits. The set bits go back into a position table
// sized from their count when they fit one, and into the dense array
// otherwise, so what a restore allocates follows from the words it is
// given, not from NBits.
func RestoreFilter(st FilterState) (*Filter, error) {
	switch {
	case st.NBits < 64 || st.NBits >= 1<<32:
		return nil, fmt.Errorf("bloom: %d bits, want 64 to 2^32-1", st.NBits)
	case st.K < 1:
		return nil, fmt.Errorf("bloom: %d hash functions, want at least 1", st.K)
	case st.Cap < 1:
		return nil, fmt.Errorf("bloom: capacity %d, want at least 1", st.Cap)
	case st.Entries < 0:
		return nil, fmt.Errorf("bloom: %d entries", st.Entries)
	}
	set := 0
	for i, w := range st.Words {
		switch {
		case w.Word == 0:
			return nil, fmt.Errorf("bloom: zero word at index %d", w.Index)
		case i > 0 && w.Index <= st.Words[i-1].Index:
			return nil, errors.New("bloom: words not in ascending order")
		case uint64(w.Index)*64+uint64(63-bits.LeadingZeros64(w.Word)) >= st.NBits:
			return nil, fmt.Errorf("bloom: word %d sets a bit past the filter's %d", w.Index, st.NBits)
		}
		set += bits.OnesCount64(w.Word)
	}
	f := &Filter{nbits: st.NBits, k: st.K, entries: st.Entries, cap: st.Cap}
	switch {
	case set == 0:
	case 2*set <= tableSlots(st.NBits):
		f.pos = make([]uint32, 1<<bits.Len(uint(2*set-1)))
		for _, w := range st.Words {
			for x := w.Word; x != 0; x &= x - 1 {
				f.insert(w.Index*64 + uint32(bits.TrailingZeros64(x)) + 1)
			}
		}
	default:
		f.bits = make([]uint64, (st.NBits+63)/64)
		for _, w := range st.Words {
			f.bits[w.Index] = w.Word
		}
	}
	return f, nil
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

// RestorePingPong reconstructs a PingPong pair from a captured state. On
// top of RestoreFilter's refusals it refuses a generation holding more
// than its capacity and a Current other than 0 or 1.
func RestorePingPong(st PingPongState) (*PingPong, error) {
	if st.Current != 0 && st.Current != 1 {
		return nil, fmt.Errorf("bloom: current generation %d, want 0 or 1", st.Current)
	}
	p := &PingPong{current: st.Current}
	for i, g := range st.Gen {
		if g.Entries > g.Cap {
			return nil, fmt.Errorf("bloom: generation %d holds %d entries, capacity %d", i, g.Entries, g.Cap)
		}
		f, err := RestoreFilter(g)
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", i, err)
		}
		p.gen[i] = f
	}
	return p, nil
}
