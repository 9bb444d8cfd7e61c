// Package reaction models how concrete Shadowsocks server implementations
// react to arbitrary first-packet payloads — the behaviour the GFW's active
// probes are designed to elicit and that §5 of the paper catalogues in
// Figure 10a (stream ciphers), Figure 10b (AEAD ciphers) and Table 5
// (replays).
//
// The engine performs real decryption with the server's actual key and
// real target-specification parsing, so the probability structure the
// paper measures (13/16 invalid address types under libev's masking, the
// negligible AEAD forgery probability, and so on) emerges from the
// cryptography rather than being hard-coded. Both the runnable servers in
// internal/ssserver and the flow-level GFW simulator in internal/netsim
// share this one source of truth.
package reaction

import (
	"hash/fnv"
	"time"

	"sslab/internal/replay"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
)

// Reaction is an observable server behaviour, as classified in Figure 10:
// the TCP-visible outcome of sending one payload and waiting.
type Reaction int

const (
	// Timeout: the server keeps waiting for more data; the prober (which
	// times out in under 10 s, vs. the server's typical 60 s) closes first.
	Timeout Reaction = iota
	// RST: the server closes immediately with unread data in its socket
	// buffer, producing a TCP RST (Frolov et al.'s observation about
	// Linux close semantics).
	RST
	// FINACK: the server closes immediately having read everything,
	// producing a FIN/ACK.
	FINACK
	// Data: the server responds with proxied data — what a server without
	// replay protection does when fed an identical replay (Table 5's "D").
	Data
)

// String returns the Figure 10 cell label for r.
func (r Reaction) String() string {
	switch r {
	case Timeout:
		return "TIMEOUT"
	case RST:
		return "RST"
	case FINACK:
		return "FIN/ACK"
	case Data:
		return "DATA"
	default:
		return "UNKNOWN"
	}
}

// Profile captures the behavioural differences between implementations
// and version ranges that the paper's probes can distinguish.
type Profile struct {
	Name     string // implementation name, e.g. "shadowsocks-libev"
	Versions string // human-readable version range

	// RSTOnError: close immediately on a protocol/authentication error
	// (older versions) instead of reading forever (newer versions).
	RSTOnError bool
	// ReplayDefense: remember IVs/salts and reject replays (libev's
	// ppbloom; added to OutlineVPN in v1.1.0).
	ReplayDefense bool
	// AtypMask: mask the upper four bits of the address-type byte before
	// validating (a libev artifact of the removed one-time-auth mode),
	// raising the valid-type probability from 3/256 to 3/16.
	AtypMask bool
	// WaitPayloadTag: with AEAD ciphers, wait for salt+18+16+1 bytes
	// (libev waits for the first payload tag too) rather than reacting at
	// salt+18 (OutlineVPN v1.0.6's distinguishing quirk).
	WaitPayloadTag bool
	// AEADOnly: the implementation refuses stream-cipher configs
	// (OutlineVPN).
	AEADOnly bool
}

// The implementation profiles the paper studies, plus the post-disclosure
// hardened profile (§7.2 and the Responsible Disclosure section).
var (
	// LibevOld is Shadowsocks-libev v3.0.8–v3.2.5: replies RST on errors,
	// has the ppbloom replay filter, masks the address type, and requires
	// the complete target specification in the first data packet.
	LibevOld = Profile{
		Name: "shadowsocks-libev", Versions: "v3.0.8-v3.2.5",
		RSTOnError: true, ReplayDefense: true, AtypMask: true, WaitPayloadTag: true,
	}
	// LibevNew is Shadowsocks-libev v3.3.1–v3.3.3: identical parsing but
	// it times out instead of RSTing on errors (commit a99c39c).
	LibevNew = Profile{
		Name: "shadowsocks-libev", Versions: "v3.3.1-v3.3.3",
		RSTOnError: false, ReplayDefense: true, AtypMask: true, WaitPayloadTag: true,
	}
	// Outline106 is OutlineVPN v1.0.6: AEAD only, no replay defense,
	// reacts as soon as the sealed length prefix is readable, RST on
	// authentication failure — and FIN/ACK at exactly salt+18 bytes.
	Outline106 = Profile{
		Name: "outline-ss-server", Versions: "v1.0.6",
		RSTOnError: true, AEADOnly: true,
	}
	// Outline107 is OutlineVPN v1.0.7–v1.0.8: probing resistance via
	// timeout (Jigsaw commit c70d512) but still no replay defense.
	Outline107 = Profile{
		Name: "outline-ss-server", Versions: "v1.0.7-v1.0.8",
		AEADOnly: true,
	}
	// Outline110 is OutlineVPN v1.1.0: adds the client-data replay
	// defense released in February 2020 after the disclosure.
	Outline110 = Profile{
		Name: "outline-ss-server", Versions: "v1.1.0",
		AEADOnly: true, ReplayDefense: true,
	}
	// Hardened follows every §7.2 recommendation: AEAD only, timestamp+
	// nonce replay filtering, and fully consistent timeout-on-error
	// reactions.
	Hardened = Profile{
		Name: "hardened-reference", Versions: "v1",
		AEADOnly: true, ReplayDefense: true, WaitPayloadTag: true,
	}
	// SSPython is Shadowsocks-python (the original implementation, §6):
	// stream ciphers without any replay defense and immediate closes on
	// errors. An identical replay decrypts cleanly and is proxied — the
	// strongest possible confirmation signal, consistent with the paper's
	// observation that the servers that actually got blocked ran
	// Shadowsocks-python or ShadowsocksR.
	SSPython = Profile{
		Name: "shadowsocks-python", Versions: "v2.x",
		RSTOnError: true, AtypMask: true, WaitPayloadTag: true,
	}
	// SSR is ShadowsocksR (§6): for probing purposes it behaves like a
	// stream-cipher server without a replay filter; its added obfuscation
	// layers do not authenticate the first flight either.
	SSR = Profile{
		Name: "shadowsocksr", Versions: "v2.5.x",
		RSTOnError: true, AtypMask: false, WaitPayloadTag: true,
	}
)

// Profiles lists the built-in profiles in the order Figure 10 presents them.
func Profiles() []Profile {
	return []Profile{LibevOld, LibevNew, Outline106, Outline107, Outline110, Hardened, SSPython, SSR}
}

// DialOutcome is what happens when the server tries to connect to a
// decrypted target specification.
type DialOutcome int

const (
	// DialRefused: the connection fails immediately (RST/unreachable) —
	// the server then closes toward the client with FIN/ACK.
	DialRefused DialOutcome = iota
	// DialHang: the target never answers; the server retransmits SYNs and
	// the prober gives up first (observed as a timeout).
	DialHang
	// DialOK: the target answers — only plausible for replays of genuine
	// connections, whose targets exist.
	DialOK
)

// Dialer decides the outcome of the server's outbound connection attempt.
type Dialer interface {
	Dial(target socks.Addr) DialOutcome
}

// HashDialer is the default Dialer for random targets: a deterministic
// 50/50 split between fast failure and hang, keyed by the target address.
// Random 4-byte IPs and garbage hostnames essentially never resolve to a
// live, fast-failing host in a consistent way, and the paper observes both
// FIN/ACK and TIMEOUT tails; the even split is an explicit modeling choice.
type HashDialer struct{}

// Dial implements Dialer.
func (HashDialer) Dial(target socks.Addr) DialOutcome {
	h := fnv.New32a()
	h.Write([]byte(target.String()))
	// Avalanche (murmur3 finalizer): FNV's low bits are biased on
	// structured inputs like dotted quads.
	x := h.Sum32()
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	if x&1 == 0 {
		return DialRefused
	}
	return DialHang
}

// Server is the reaction-level model of one configured Shadowsocks server.
type Server struct {
	Profile Profile
	Spec    sscrypto.Spec
	Key     []byte
	Dialer  Dialer

	filter replay.Filter
}

// NewServer builds a Server for the given profile, method and password.
// It returns an error via panic-free validation: an AEAD-only profile
// configured with a stream method yields a nil server.
func NewServer(p Profile, spec sscrypto.Spec, password string) (*Server, error) {
	if p.AEADOnly && spec.Kind != sscrypto.AEAD {
		return nil, &ConfigError{Profile: p, Method: spec.Name}
	}
	s := &Server{Profile: p, Spec: spec, Key: spec.Key(password), Dialer: HashDialer{}}
	if p.ReplayDefense {
		if p == Hardened {
			s.filter = replay.NewTimedFilter(2 * time.Minute)
		} else {
			s.filter = replay.NewNonceFilter(1 << 16)
		}
	} else {
		s.filter = replay.None{}
	}
	return s, nil
}

// FilterState captures the server's replay-filter state for engine
// snapshots (see replay.CaptureState).
func (s *Server) FilterState() (replay.State, error) {
	return replay.CaptureState(s.filter)
}

// RestoreFilterState replaces the server's replay filter with the one
// a FilterState captured.
func (s *Server) RestoreFilterState(st replay.State) error {
	f, err := replay.RestoreState(st)
	if err != nil {
		return err
	}
	s.filter = f
	return nil
}

// ConfigError reports an implementation/method mismatch.
type ConfigError struct {
	Profile Profile
	Method  string
}

func (e *ConfigError) Error() string {
	return "reaction: " + e.Profile.Name + " " + e.Profile.Versions + " does not support method " + e.Method
}

// Result is the outcome of delivering one first-packet payload.
type Result struct {
	Reaction Reaction
	// Target is set when the payload decrypted to a parseable target
	// specification (stream ciphers) or authenticated (AEAD).
	Target *socks.Addr
	// ReplayDetected is set when the replay filter rejected the nonce.
	ReplayDetected bool
}

// errorReaction is the profile's behaviour on any protocol error.
func (s *Server) errorReaction() Reaction {
	if s.Profile.RSTOnError {
		return RST
	}
	return Timeout
}

// React computes the server's observable reaction to a connection whose
// first (and only) client flight is payload, delivered at time now. The
// payload is treated as freshly generated (client timestamp = now).
func (s *Server) React(payload []byte, now time.Time) Result {
	return s.ReactAt(payload, now, now)
}

// ReactAt is React for a payload originally generated at time ts — for a
// replayed probe, ts is when the GFW recorded the genuine connection. Only
// the Hardened profile's timestamp-based filter distinguishes ts from now;
// every implementation the paper studied ignores it.
func (s *Server) ReactAt(payload []byte, ts, now time.Time) Result {
	if s.Spec.Kind == sscrypto.Stream {
		return s.reactStream(payload, ts, now)
	}
	return s.reactAEAD(payload, ts, now)
}

// isReplay consults the profile's filter, honoring embedded timestamps
// when the filter supports them.
func (s *Server) isReplay(nonce []byte, ts, now time.Time) bool {
	if tf, ok := s.filter.(*replay.TimedFilter); ok {
		return tf.ReplayAt(nonce, ts, now)
	}
	return s.filter.Replay(nonce, now)
}

func (s *Server) reactStream(payload []byte, ts, now time.Time) Result {
	ivLen := s.Spec.IVSize
	// With only a (possibly partial) IV and no ciphertext, the server
	// waits for more data.
	if len(payload) <= ivLen {
		return Result{Reaction: Timeout}
	}
	iv := payload[:ivLen]
	if s.isReplay(iv, ts, now) {
		return Result{Reaction: s.errorReaction(), ReplayDetected: true}
	}
	dec, err := s.Spec.NewStreamDecrypter(s.Key, iv)
	if err != nil {
		return Result{Reaction: s.errorReaction()}
	}
	plain := make([]byte, len(payload)-ivLen)
	dec.XORKeyStream(plain, payload[ivLen:])

	target, _, derr := socks.Decode(plain, s.Profile.AtypMask)
	switch derr {
	case nil:
		// Complete target specification: attempt the outbound connection.
		switch s.Dialer.Dial(target) {
		case DialRefused:
			return Result{Reaction: FINACK, Target: &target}
		case DialHang:
			return Result{Reaction: Timeout, Target: &target}
		default:
			return Result{Reaction: Data, Target: &target}
		}
	case socks.ErrIncomplete:
		// Old libev requires the complete specification in the first data
		// event and treats a short header as an error; new libev waits.
		if s.Profile.RSTOnError {
			return Result{Reaction: RST}
		}
		return Result{Reaction: Timeout}
	default: // invalid address type
		return Result{Reaction: s.errorReaction()}
	}
}

func (s *Server) reactAEAD(payload []byte, ts, now time.Time) Result {
	saltLen := s.Spec.SaltSize()
	overhead := 16
	// How much data the implementation waits for before reacting:
	// libev additionally waits for the first payload tag plus one payload
	// byte; OutlineVPN v1.0.6 reacts as soon as [salt][len][tag] arrives.
	need := saltLen + 2 + overhead
	if s.Profile.WaitPayloadTag {
		need += overhead + 1
	}
	if len(payload) < need {
		return Result{Reaction: Timeout}
	}
	// OutlineVPN v1.0.6's fingerprint: at exactly [salt][len][tag] it
	// closes with FIN/ACK (it read everything, then errored), while any
	// longer unauthenticated payload leaves unread bytes and RSTs.
	if !s.Profile.WaitPayloadTag && s.Profile.RSTOnError && len(payload) == need {
		return Result{Reaction: FINACK}
	}

	salt := payload[:saltLen]
	if s.isReplay(salt, ts, now) {
		return Result{Reaction: s.errorReaction(), ReplayDetected: true}
	}
	aead, err := s.Spec.NewAEAD(sscrypto.SessionSubkey(s.Key, salt))
	if err != nil {
		return Result{Reaction: s.errorReaction()}
	}
	nonce := make([]byte, aead.NonceSize())
	head := payload[saltLen : saltLen+2+overhead]
	lenPlain, err := aead.Open(nil, nonce, head, nil)
	if err != nil {
		// Authentication failure — for random or byte-changed payloads
		// this is a (1 - 2^-128) certainty.
		return Result{Reaction: s.errorReaction()}
	}

	// Authenticated: this is a genuine (replayed) client flight. Decrypt
	// the first chunk and proxy.
	n := int(lenPlain[0])<<8 | int(lenPlain[1])
	body := payload[saltLen+2+overhead:]
	if len(body) < n+overhead {
		return Result{Reaction: Timeout} // wait for the rest of the chunk
	}
	incNonce(nonce)
	chunk, err := aead.Open(nil, nonce, body[:n+overhead], nil)
	if err != nil {
		return Result{Reaction: s.errorReaction()}
	}
	target, _, derr := socks.Decode(chunk, false)
	if derr != nil {
		return Result{Reaction: s.errorReaction()}
	}
	switch s.Dialer.Dial(target) {
	case DialOK:
		return Result{Reaction: Data, Target: &target}
	case DialRefused:
		return Result{Reaction: FINACK, Target: &target}
	default:
		return Result{Reaction: Timeout, Target: &target}
	}
}

func incNonce(n []byte) {
	for i := range n {
		n[i]++
		if n[i] != 0 {
			return
		}
	}
}

// Restart simulates a server restart for replay-filter purposes: a
// nonce-based filter forgets everything; a timed filter is unaffected.
func (s *Server) Restart() {
	if f, ok := s.filter.(*replay.NonceFilter); ok {
		f.Forget()
	}
}

// RegisterNonce records the IV/salt of a genuine (non-probe) connection's
// first payload in the server's replay filter, as serving the connection
// would. Experiment hosts use this to prime the filter without running the
// full proxy path.
func (s *Server) RegisterNonce(payload []byte, now time.Time) {
	n := s.Spec.IVSize
	if len(payload) < n {
		return
	}
	s.filter.Replay(payload[:n], now)
}
