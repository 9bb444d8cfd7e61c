package detector

import (
	"sslab/internal/defense"
	"sslab/internal/netsim"
)

// The fully-encrypted stage models the censor heuristic Winter &
// Lindskog reverse-engineered for Tor bridges and obfs transports ("How
// the Great Firewall of China is Blocking Tor", FOCI 2012) and that the
// GFW later deployed against fully encrypted protocols at large: a flow
// whose first packet carries no recognizable protocol structure — not
// TLS-framed, not leading with printable application text — yet is long
// and indistinguishable from random bytes is flagged as a probable
// circumvention transport and handed to active probing. obfs2-era
// transports respond to replayed or malformed handshakes and get
// confirmed; obfs4-style probe-silent transports time every probe out
// and survive, exactly the arms race the armsrace experiment measures.

// StageFullyEncrypted names the fully-encrypted-transport stage.
const StageFullyEncrypted = "fullyencrypted"

const (
	// fepMinLen is the shortest first payload the stage considers: below
	// it the entropy estimate is too coarse to separate random bytes
	// from binary protocols, and real deployments exempt small packets.
	fepMinLen = 160
	// fepMinEntropy is the per-byte Shannon entropy floor: a fepMinLen
	// payload of uniformly random bytes measures ≈6.8–7.0 bits/byte,
	// while TLS ClientHellos sit near 5–6 and plaintext lower still.
	fepMinEntropy = 6.5
	// fepMaxEntropy is where the confidence scale saturates (long
	// uniformly random payloads approach 7.8–8.0 bits/byte).
	fepMaxEntropy = 7.8
	// fepRate is the action rate at saturation — like the Shadowsocks
	// stage's base rate it models the censor sampling flagged flows for
	// active confirmation, not certainty about the fingerprint.
	fepRate = 0.15
)

// fepStage flags long, structureless, maximum-entropy first payloads.
type fepStage struct{}

// Observe implements Stage.
//
//sslab:hotpath
func (fepStage) Observe(f *netsim.Flow, sc *Scratch) Result {
	p := f.FirstPayload
	if len(p) < fepMinLen {
		return Result{}
	}
	// Structured traffic is exempt: TLS record framing, or an
	// all-printable prefix the way HTTP methods and headers lead.
	if defense.IsTLSFramed(p) {
		return Result{}
	}
	printable := true
	for _, b := range p[:6] {
		if b < 0x20 || b > 0x7e {
			printable = false
			break
		}
	}
	if printable {
		return Result{}
	}
	h := sc.Entropy()
	if h < fepMinEntropy {
		return Result{}
	}
	frac := (h - fepMinEntropy) / (fepMaxEntropy - fepMinEntropy)
	if frac > 1 {
		frac = 1
	}
	return Result{Verdict: Suspect, Confidence: fepRate * (0.5 + 0.5*frac)}
}
