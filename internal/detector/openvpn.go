package detector

import (
	"sslab/internal/netsim"
)

// The OpenVPN stage models the first-stage opcode filter of Xue et al.,
// "OpenVPN Is Open to VPN Fingerprinting" (USENIX Security 2022): an
// on-path observer can flag OpenVPN-over-TCP flows from the very first
// payload, because the handshake leads with a fixed-format
// P_CONTROL_HARD_RESET_CLIENT control message — a 2-byte TCP length
// prefix, an opcode byte whose high 5 bits name the message type and
// low 3 bits the key ID (0 for the first handshake), an 8-byte random
// session ID, and an ACK array that is empty in the client's first
// packet (it has nothing to acknowledge yet). Flagged flows are then
// confirmed by active probing, which the simulator's fleet server hosts
// model per deployment (plain servers answer well-formed resets;
// tls-auth/tls-crypt servers drop probes whose HMAC fails).

// StageOpenVPN names the OpenVPN fingerprinting stage.
const StageOpenVPN = "openvpn"

// OpenVPN control-channel opcodes (the high 5 bits of the opcode byte).
const (
	OpControlHardResetClientV1 = 1
	OpAckV1                    = 5
	OpControlHardResetClientV2 = 7
	OpControlHardResetClientV3 = 10
)

// Reset packet layout over TCP, after the 2-byte length prefix and the
// opcode byte: an 8-byte session ID, then for tls-auth an HMAC envelope
// (20-byte HMAC-SHA1, 4-byte packet ID, 4-byte net time), then the
// 1-byte ACK count (0 in a client's first packet) and the 4-byte
// message packet ID.
const (
	resetPlainLen = 2 + 1 + 8 + 1 + 4
	resetAuthLen  = resetPlainLen + 20 + 4 + 4
)

// Reset is a parsed OpenVPN-over-TCP client reset — the first packet of
// an OpenVPN handshake.
type Reset struct {
	// Op is the opcode (one of the OpControlHardResetClient* values).
	Op byte
	// KeyID is the low 3 bits of the opcode byte (0 on a first handshake).
	KeyID byte
	// Session is the client's random 8-byte session ID.
	Session [8]byte
	// TLSAuth reports that the reset carries a tls-auth HMAC envelope.
	TLSAuth bool
}

// ParseClientReset parses p as the first TCP payload of an OpenVPN
// client handshake. It implements the Xue et al. filter: exact framing
// (the 2-byte length prefix must cover the rest of the packet and the
// total must match one of the two reset layouts), a client hard-reset
// opcode with key ID 0, and an empty ACK array. ok is false for
// anything else; the parse never allocates.
func ParseClientReset(p []byte) (r Reset, ok bool) {
	var ackOff int
	switch len(p) {
	case resetPlainLen:
		ackOff = 11
	case resetAuthLen:
		ackOff = 11 + 20 + 4 + 4
		r.TLSAuth = true
	default:
		return Reset{}, false
	}
	if int(p[0])<<8|int(p[1]) != len(p)-2 {
		return Reset{}, false
	}
	r.Op = p[2] >> 3
	r.KeyID = p[2] & 0x07
	if r.KeyID != 0 {
		return Reset{}, false
	}
	switch r.Op {
	case OpControlHardResetClientV1, OpControlHardResetClientV2, OpControlHardResetClientV3:
	default:
		return Reset{}, false
	}
	if p[ackOff] != 0 {
		// A client's first packet acknowledges nothing.
		return Reset{}, false
	}
	copy(r.Session[:], p[3:11])
	return r, true
}

// openvpnConfidence is the per-flow action rate when the opcode filter
// matches. The fingerprint itself is near-deterministic (Xue et al.
// flag >85% of flows from the first packet); the rate below that
// certainty models the censor sampling matched flows for active
// confirmation rather than probing every single connection.
const openvpnConfidence = 0.30

// openvpnStage flags flows whose first payload is a well-formed OpenVPN
// client reset.
type openvpnStage struct{}

// Observe implements Stage.
//
//sslab:hotpath
func (openvpnStage) Observe(f *netsim.Flow, sc *Scratch) Result {
	if _, ok := ParseClientReset(f.FirstPayload); !ok {
		return Result{}
	}
	return Result{Verdict: Suspect, Confidence: openvpnConfidence}
}
