package reaction

import (
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"sslab/internal/bloom"
	"sslab/internal/probe"
	"sslab/internal/replay"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
	"sslab/internal/ssproto"
)

// recorderConn captures the wire image of everything written through it —
// playing the role of the GFW recording a passing first packet.
type recorderConn struct {
	net.Conn
	wire []byte
}

func (r *recorderConn) Write(p []byte) (int, error) {
	r.wire = append(r.wire, p...)
	return len(p), nil
}

// legitFirstPacket produces the genuine first client flight for the given
// method: [IV|salt]...[target spec + initial data], as a real client sends.
func legitFirstPacket(t *testing.T, method, password, target string, data []byte, rng *rand.Rand) []byte {
	t.Helper()
	spec, err := sscrypto.Lookup(method)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := socks.ParseAddr(target)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorderConn{}
	conn := ssproto.NewConnWithRand(rec, spec, spec.Key(password), rng)
	first := append(addr.Append(nil), data...)
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	return rec.wire
}

// mapDialer resolves known (legitimate) targets as live and everything
// else per HashDialer.
type mapDialer map[string]DialOutcome

func (m mapDialer) Dial(target socks.Addr) DialOutcome {
	if o, ok := m[target.String()]; ok {
		return o
	}
	return HashDialer{}.Dial(target)
}

const legitTarget = "93.184.216.34:443" // example.com

func liveDialer() Dialer { return mapDialer{legitTarget: DialOK} }

// TestTable5LibevOldStream: identical replay → RST; byte-changed replays
// (IV-region mutations) → a mix of RST/TIMEOUT/FIN-ACK and never Data.
func TestTable5LibevOldStream(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := mustServer(t, LibevOld, "aes-256-ctr")
	s.Dialer = liveDialer()

	counts := map[Reaction]int{}
	for i := 0; i < 300; i++ {
		rec := legitFirstPacket(t, "aes-256-ctr", "test-password", legitTarget,
			[]byte("GET / HTTP/1.1\r\n\r\n"), rng)
		// Prime the filter as the genuine connection would have.
		if r := s.React(rec, t0); r.Reaction != Data {
			t.Fatalf("genuine connection got %v, want DATA", r.Reaction)
		}
		// Identical replay → replay filter → RST.
		if r := s.React(append([]byte(nil), rec...), t0.Add(time.Minute)); r.Reaction != RST || !r.ReplayDetected {
			t.Fatalf("identical replay got %v (replay=%v), want RST via filter", r.Reaction, r.ReplayDetected)
		}
		// Byte-changed replay (R2: IV byte changed) → fresh IV → random-
		// probe behaviour.
		r := s.React(probe.Build(probe.R2, rec, rng), t0.Add(time.Minute))
		counts[r.Reaction]++
	}
	if counts[Data] != 0 {
		t.Errorf("byte-changed replay produced DATA %d times", counts[Data])
	}
	if counts[RST] == 0 {
		t.Error("byte-changed replays never RST; expected the dominant reaction")
	}
}

// TestTable5LibevOldAEAD: identical → RST (filter); byte-changed → RST
// (authentication failure).
func TestTable5LibevOldAEAD(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := mustServer(t, LibevOld, "aes-256-gcm")
	s.Dialer = liveDialer()
	rec := legitFirstPacket(t, "aes-256-gcm", "test-password", legitTarget, []byte("x"), rng)

	if r := s.React(rec, t0); r.Reaction != Data {
		t.Fatalf("genuine connection got %v", r.Reaction)
	}
	if r := s.React(append([]byte(nil), rec...), t0.Add(time.Hour)); r.Reaction != RST {
		t.Errorf("identical replay got %v, want RST", r.Reaction)
	}
	for _, typ := range []probe.Type{probe.R2, probe.R3, probe.R5} {
		if r := s.React(probe.Build(typ, rec, rng), t0.Add(time.Hour)); r.Reaction != RST {
			t.Errorf("%v replay got %v, want RST", typ, r.Reaction)
		}
	}
}

// TestTable5LibevNew: same logic, but every error reaction is TIMEOUT.
func TestTable5LibevNew(t *testing.T) {
	rng := rand.New(rand.NewSource(22))

	stream := mustServer(t, LibevNew, "aes-256-ctr")
	stream.Dialer = liveDialer()
	recS := legitFirstPacket(t, "aes-256-ctr", "test-password", legitTarget, []byte("y"), rng)
	stream.React(recS, t0)
	if r := stream.React(append([]byte(nil), recS...), t0.Add(time.Minute)); r.Reaction != Timeout {
		t.Errorf("stream identical replay got %v, want TIMEOUT", r.Reaction)
	}
	for i := 0; i < 100; i++ {
		r := stream.React(probe.Build(probe.R2, recS, rng), t0.Add(time.Minute))
		if r.Reaction == RST || r.Reaction == Data {
			t.Fatalf("stream byte-changed replay got %v, want TIMEOUT or FIN/ACK", r.Reaction)
		}
	}

	aead := mustServer(t, LibevNew, "aes-256-gcm")
	aead.Dialer = liveDialer()
	recA := legitFirstPacket(t, "aes-256-gcm", "test-password", legitTarget, []byte("y"), rng)
	aead.React(recA, t0)
	if r := aead.React(append([]byte(nil), recA...), t0.Add(time.Minute)); r.Reaction != Timeout {
		t.Errorf("AEAD identical replay got %v, want TIMEOUT", r.Reaction)
	}
	if r := aead.React(probe.Build(probe.R3, recA, rng), t0.Add(time.Minute)); r.Reaction != Timeout {
		t.Errorf("AEAD byte-changed replay got %v, want TIMEOUT", r.Reaction)
	}
}

// TestTable5Outline: without a replay defense, an identical replay makes
// the server respond with data — the paper's "D" cell and the core reason
// replay probes confirm OutlineVPN servers.
func TestTable5Outline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range []Profile{Outline106, Outline107} {
		s := mustServer(t, p, "chacha20-ietf-poly1305")
		s.Dialer = liveDialer()
		rec := legitFirstPacket(t, "chacha20-ietf-poly1305", "test-password", legitTarget,
			[]byte("GET / HTTP/1.1\r\n\r\n"), rng)
		if r := s.React(rec, t0); r.Reaction != Data {
			t.Fatalf("%s genuine connection got %v", p.Versions, r.Reaction)
		}
		// Identical replay, even days later: served like a fresh client.
		r := s.React(append([]byte(nil), rec...), t0.Add(48*time.Hour))
		if r.Reaction != Data {
			t.Errorf("%s identical replay got %v, want DATA", p.Versions, r.Reaction)
		}
		// Byte-changed (salt region): auth failure — RST for v1.0.6,
		// TIMEOUT for v1.0.7+ (Table 5 reflects the latter).
		want := Timeout
		if p.RSTOnError {
			want = RST
		}
		if r := s.React(probe.Build(probe.R2, rec, rng), t0); r.Reaction != want {
			t.Errorf("%s byte-changed replay got %v, want %v", p.Versions, r.Reaction, want)
		}
	}
}

// TestOutline110ReplayDefense verifies the post-disclosure release rejects
// identical replays with a consistent timeout.
func TestOutline110ReplayDefense(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := mustServer(t, Outline110, "chacha20-ietf-poly1305")
	s.Dialer = liveDialer()
	rec := legitFirstPacket(t, "chacha20-ietf-poly1305", "test-password", legitTarget, []byte("z"), rng)
	if r := s.React(rec, t0); r.Reaction != Data {
		t.Fatalf("genuine connection got %v", r.Reaction)
	}
	r := s.React(append([]byte(nil), rec...), t0.Add(time.Hour))
	if r.Reaction != Timeout || !r.ReplayDetected {
		t.Errorf("identical replay got %v (replay=%v), want TIMEOUT via filter", r.Reaction, r.ReplayDetected)
	}
}

// TestHardenedAgainstDelayedReplayAcrossRestart is the §7.2 punchline: a
// nonce-only filter forgets after a restart, a timestamp filter does not.
func TestHardenedAgainstDelayedReplayAcrossRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(25))

	// Baseline: nonce-only defense (libev) fails across a restart.
	libev := mustServer(t, LibevNew, "aes-256-gcm")
	libev.Dialer = liveDialer()
	recL := legitFirstPacket(t, "aes-256-gcm", "test-password", legitTarget, []byte("q"), rng)
	libev.React(recL, t0)
	libev.Restart()
	if r := libev.ReactAt(append([]byte(nil), recL...), t0, t0.Add(570*time.Hour)); r.Reaction == Data {
		// Data is expected here: the filter forgot, and that is the flaw.
		t.Log("confirmed: nonce-only filter serves a 570-hour-delayed replay after restart")
	} else if r.ReplayDetected {
		t.Error("nonce filter remembered across restart; Restart() broken")
	}

	// Hardened: timestamp check rejects the stale replay regardless.
	h := mustServer(t, Hardened, "chacha20-ietf-poly1305")
	h.Dialer = liveDialer()
	recH := legitFirstPacket(t, "chacha20-ietf-poly1305", "test-password", legitTarget, []byte("q"), rng)
	if r := h.ReactAt(recH, t0, t0); r.Reaction != Data {
		t.Fatalf("hardened genuine connection got %v", r.Reaction)
	}
	h.Restart()
	r := h.ReactAt(append([]byte(nil), recH...), t0, t0.Add(570*time.Hour))
	if r.Reaction != Timeout {
		t.Errorf("hardened delayed replay got %v, want TIMEOUT", r.Reaction)
	}
}

// TestRestoreFilterStateRefusesBadState feeds replay-filter states that
// no libev server writes through replay.RestoreState and a libev
// server's RestoreFilterState. Each returns an error, none panics, and a
// refused restore leaves the server's filter as it was. The first group
// is malformed Bloom state; the second is well formed but sized unlike
// the profile's filter, which only RestoreFilterState refuses.
func TestRestoreFilterStateRefusesBadState(t *testing.T) {
	srv := mustServer(t, LibevNew, "aes-256-gcm")
	for i := 0; i < 50; i++ {
		salt := make([]byte, 33)
		salt[0], salt[1] = byte(i), 1
		srv.RegisterNonce(salt, t0)
	}
	good, err := srv.FilterState()
	if err != nil {
		t.Fatal(err)
	}
	if len(good.PingPong.Gen[0].Words) < 2 {
		t.Fatalf("the filter holds %d words", len(good.PingPong.Gen[0].Words))
	}
	nwords := uint32((good.PingPong.Gen[0].NBits + 63) / 64)
	cases := []struct {
		name      string
		malformed bool
		edit      func(p *bloom.PingPongState)
	}{
		{"2^62 bits", true, func(p *bloom.PingPongState) { p.Gen[0].NBits = 1 << 62 }},
		{"2^32 bits", true, func(p *bloom.PingPongState) { p.Gen[1].NBits = 1 << 32 }},
		{"0 bits", true, func(p *bloom.PingPongState) { p.Gen[1].NBits = 0 }},
		{"k 0", true, func(p *bloom.PingPongState) { p.Gen[0].K = 0 }},
		{"capacity 0", true, func(p *bloom.PingPongState) { p.Gen[1].Cap = 0 }},
		{"negative entries", true, func(p *bloom.PingPongState) { p.Gen[0].Entries = -1 }},
		{"entries over capacity", true, func(p *bloom.PingPongState) { p.Gen[1].Entries = p.Gen[1].Cap + 1 }},
		{"word index out of range", true, func(p *bloom.PingPongState) {
			p.Gen[0].Words = append(p.Gen[0].Words, bloom.WordState{Index: nwords, Word: 1})
		}},
		{"bit past the filter's bits", true, func(p *bloom.PingPongState) {
			p.Gen[0].Words = append(p.Gen[0].Words, bloom.WordState{Index: nwords - 1, Word: 1 << 63})
		}},
		{"descending words", true, func(p *bloom.PingPongState) {
			w := p.Gen[0].Words
			w[0], w[1] = w[1], w[0]
		}},
		{"repeated word", true, func(p *bloom.PingPongState) { p.Gen[0].Words[1].Index = p.Gen[0].Words[0].Index }},
		{"zero word", true, func(p *bloom.PingPongState) { p.Gen[0].Words[0].Word = 0 }},
		{"current 2", true, func(p *bloom.PingPongState) { p.Current = 2 }},
		{"current -1", true, func(p *bloom.PingPongState) { p.Current = -1 }},
		{"other size", false, func(p *bloom.PingPongState) { p.Gen[0].NBits += 64 }},
		{"other k", false, func(p *bloom.PingPongState) { p.Gen[1].K-- }},
		{"other capacity", false, func(p *bloom.PingPongState) { p.Gen[1].Cap = 1 << 10 }},
	}
	for _, c := range cases {
		pp := *good.PingPong
		for i := range pp.Gen {
			pp.Gen[i].Words = slices.Clone(pp.Gen[i].Words)
		}
		c.edit(&pp)
		st := replay.State{Kind: "nonce", PingPong: &pp}
		if _, err := replay.RestoreState(st); (err != nil) != c.malformed {
			t.Errorf("%s: replay.RestoreState returned %v", c.name, err)
		}
		if err := srv.RestoreFilterState(st); err == nil {
			t.Errorf("%s: RestoreFilterState accepted it", c.name)
		}
	}
	if err := srv.RestoreFilterState(replay.State{Kind: "timed", Window: time.Minute}); err == nil {
		t.Error("a libev server accepted a timed filter's state")
	}
	if got, _ := srv.FilterState(); !slices.Equal(got.PingPong.Gen[0].Words, good.PingPong.Gen[0].Words) {
		t.Error("a refused restore changed the server's filter")
	}
	if err := srv.RestoreFilterState(good); err != nil {
		t.Errorf("the server's own state: %v", err)
	}
}

// TestR4IsFilterCaught: R4 leaves a 16-byte IV intact, so a replay-
// defended stream server treats it as a replay, unlike R2/R3.
func TestR4IsFilterCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := mustServer(t, LibevOld, "aes-256-ctr") // 16-byte IV
	s.Dialer = liveDialer()
	rec := legitFirstPacket(t, "aes-256-ctr", "test-password", legitTarget, []byte("w"), rng)
	s.React(rec, t0)
	r := s.React(probe.Build(probe.R4, rec, rng), t0.Add(time.Minute))
	if !r.ReplayDetected {
		t.Error("R4 (byte 16 changed) should be caught by the IV replay filter")
	}
}
