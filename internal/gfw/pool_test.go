package gfw

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sslab/internal/netsim"
	"sslab/internal/seedfork"
)

// TestNewPoolPinned pins the prober pool NewPool builds: every address
// with its AS, in table order, plus where the pool's stream stands
// afterwards (so the sampling weights and TCP-timestamp processes drawn
// after the table start at the same draw). The hashes were taken before
// the table construction stopped formatting each address separately;
// the position is written as %+v wrote seedfork.State before the state
// gained its register.
func TestNewPoolPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		size int
		hash string
	}{
		{1, 64, "40596f3752929f378729851a503809d15eb2d46d1598e9525679d7d29c6d9cd8"},
		{1, 2000, "9b6136f8999004032cf0664efc3fffaca184a9c7e4ab8524b46e467af6bb5e50"},
		{1, 13000, "e8d43edb45d4679bc3524c163c825feb11d96ce738e1c88fd0fee86c0174df79"},
		{2, 13000, "2c7a01669e03939d9c9343d6de65c9588fea4bc55577062ab03a420767e6a2e8"},
		{7, 2000, "d247edf04fb96cf530439bdaf87076a375656425b18910e8f55d99055d5de663"},
		{8, 64, "580e68455f71458c311131344a7aa5233896ed0614dbb7386f34d98983bc4261"},
		{123456789, 13000, "33c9e4aac06c45b61544347a14350e34f9968736109ba9d9908334490cd13bb5"},
	} {
		p := NewPool(seedfork.NewSource(c.seed), c.size, netsim.Epoch)
		h := sha256.New()
		for _, ip := range p.ips {
			fmt.Fprintf(h, "%s %d\n", p.addr(ip), ip.asn)
		}
		st := p.rng.State()
		fmt.Fprintf(h, "{Draws:%d ReadVal:%d ReadPos:%d}\n", st.Draws, st.ReadVal, st.ReadPos)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.hash {
			t.Errorf("NewPool(seed %d, size %d): table hash %s, want %s", c.seed, c.size, got, c.hash)
		}
	}
}
