package sscrypto

import (
	"encoding/binary"
	"math/bits"
)

// Poly1305TagSize is the size of a Poly1305 authenticator in bytes.
const Poly1305TagSize = 16

// Poly1305 computes the Poly1305 MAC of msg using a 32-byte one-time key
// and writes the 16-byte tag into out.
func Poly1305(out *[Poly1305TagSize]byte, msg []byte, key *[32]byte) {
	var p poly1305
	p.init(key)
	full := len(msg) &^ 15
	p.blocks(msg[:full], 1)
	if full < len(msg) {
		// The last partial block carries a 1 byte after its message
		// bytes in place of the 2¹²⁸ bit.
		var block [16]byte
		block[copy(block[:], msg[full:])] = 1
		p.blocks(block[:], 0)
	}
	p.sum(out)
}

// poly1305 is the streaming Poly1305 state in 64-bit limbs. Between
// blocks the accumulator h = h0 + h1·2⁶⁴ + h2·2¹²⁸ is only partially
// reduced mod 2¹³⁰−5: h2 ≤ 5, so h < 2·(2¹³⁰−5).
type poly1305 struct {
	h0, h1, h2 uint64
	r0, r1     uint64 // the clamped multiplier r
	s0, s1     uint64 // the final addend s
}

func (p *poly1305) init(key *[32]byte) {
	*p = poly1305{
		// Clamping clears the top four bits of each of r's 64-bit
		// limbs, which keeps every product below from overflowing.
		r0: binary.LittleEndian.Uint64(key[0:]) & 0x0ffffffc0fffffff,
		r1: binary.LittleEndian.Uint64(key[8:]) & 0x0ffffffc0ffffffc,
		s0: binary.LittleEndian.Uint64(key[16:]),
		s1: binary.LittleEndian.Uint64(key[24:]),
	}
}

// blocks absorbs the whole 16-byte blocks of msg, each as
// h = (h + block + hibit·2¹²⁸)·r mod 2¹³⁰−5. hibit is 1 for full message
// blocks and 0 for a last partial block already padded with its 1 byte.
func (p *poly1305) blocks(msg []byte, hibit uint64) {
	h0, h1, h2 := p.h0, p.h1, p.h2
	r0, r1 := p.r0, p.r1
	for len(msg) >= 16 {
		var c uint64
		h0, c = bits.Add64(h0, binary.LittleEndian.Uint64(msg[0:8]), 0)
		h1, c = bits.Add64(h1, binary.LittleEndian.Uint64(msg[8:16]), c)
		h2 += c + hibit // at most 7

		// h·r in four 64-bit limbs t0..t3. With h2 ≤ 7 and r's limbs
		// below 2⁶⁰, h2·r0 and h2·r1 fit one limb and no 128-bit column
		// sum below overflows.
		h0r0hi, h0r0lo := bits.Mul64(h0, r0)
		h1r0hi, h1r0lo := bits.Mul64(h1, r0)
		h0r1hi, h0r1lo := bits.Mul64(h0, r1)
		h1r1hi, h1r1lo := bits.Mul64(h1, r1)
		m1lo, c := bits.Add64(h1r0lo, h0r1lo, 0)
		m1hi := h1r0hi + h0r1hi + c
		m2lo, c := bits.Add64(h1r1lo, h2*r0, 0)
		m2hi := h1r1hi + c

		t0 := h0r0lo
		t1, c := bits.Add64(m1lo, h0r0hi, 0)
		t2, c := bits.Add64(m2lo, m1hi, c)
		t3 := h2*r1 + m2hi + c

		// Fold the bits at and above 2¹³⁰ back in: 2¹³⁰ ≡ 5, so
		// h = t mod 2¹³⁰ + 4·q + q for q = t >> 130.
		h0, h1, h2 = t0, t1, t2&3
		q0, q1 := t2&^3, t3 // 4·q
		h0, c = bits.Add64(h0, q0, 0)
		h1, c = bits.Add64(h1, q1, c)
		h2 += c
		q0, q1 = q0>>2|q1<<62, q1>>2
		h0, c = bits.Add64(h0, q0, 0)
		h1, c = bits.Add64(h1, q1, c)
		h2 += c // at most 5

		msg = msg[16:]
	}
	p.h0, p.h1, p.h2 = h0, h1, h2
}

// writePadded absorbs msg followed by zeros up to a multiple of 16
// bytes: RFC 8439's pad16, which follows the AD and the ciphertext.
func (p *poly1305) writePadded(msg []byte) {
	full := len(msg) &^ 15
	p.blocks(msg[:full], 1)
	if full < len(msg) {
		var block [16]byte
		copy(block[:], msg[full:])
		p.blocks(block[:], 1)
	}
}

// sum finishes the MAC: it reduces h fully, in constant time, and writes
// h + s mod 2¹²⁸.
func (p *poly1305) sum(out *[Poly1305TagSize]byte) {
	// h < 2·(2¹³⁰−5), so one subtraction of 2¹³⁰−5 reduces it. Take
	// the difference unless it borrowed.
	g0, b := bits.Sub64(p.h0, 0xfffffffffffffffb, 0)
	g1, b := bits.Sub64(p.h1, 0xffffffffffffffff, b)
	_, b = bits.Sub64(p.h2, 3, b)
	ge := b - 1 // all ones when h ≥ 2¹³⁰−5
	h0 := p.h0&^ge | g0&ge
	h1 := p.h1&^ge | g1&ge

	h0, c := bits.Add64(h0, p.s0, 0)
	h1, _ = bits.Add64(h1, p.s1, c)
	binary.LittleEndian.PutUint64(out[0:], h0)
	binary.LittleEndian.PutUint64(out[8:], h1)
}
