package replay

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"sslab/internal/bloom"
)

// State is the serializable state of any built-in replay Filter. Kind
// discriminates the concrete type; the remaining fields are used by
// the kinds that need them. Interfaces do not serialize, so snapshot
// layers capture a Filter into this flat struct and rebuild the
// concrete filter on restore.
type State struct {
	// Kind is "none", "nonce" (NonceFilter) or "timed" (TimedFilter).
	Kind string
	// PingPong is the nonce filter's Bloom pair (Kind "nonce").
	PingPong *bloom.PingPongState
	// Window, Seen and LastGC are the timed filter's state (Kind
	// "timed"); Seen is sorted by nonce for deterministic encoding.
	Window time.Duration
	Seen   []SeenNonce
	LastGC time.Time
}

// SeenNonce is one remembered nonce of a TimedFilter.
type SeenNonce struct {
	Nonce []byte
	At    time.Time
}

// CaptureState captures a built-in Filter's state. Unknown Filter
// implementations return an error — the caller's state cannot be
// round-tripped.
func CaptureState(f Filter) (State, error) {
	switch ft := f.(type) {
	case None:
		return State{Kind: "none"}, nil
	case *NonceFilter:
		ft.mu.Lock()
		defer ft.mu.Unlock()
		pp := ft.pp.State()
		return State{Kind: "nonce", PingPong: &pp}, nil
	case *TimedFilter:
		ft.mu.Lock()
		defer ft.mu.Unlock()
		st := State{Kind: "timed", Window: ft.Window, LastGC: ft.lastGC}
		for k, t := range ft.seen {
			st.Seen = append(st.Seen, SeenNonce{Nonce: []byte(k), At: t})
		}
		sort.Slice(st.Seen, func(i, j int) bool {
			return bytes.Compare(st.Seen[i].Nonce, st.Seen[j].Nonce) < 0
		})
		return st, nil
	default:
		return State{}, fmt.Errorf("replay: cannot capture filter type %T", f)
	}
}

// RestoreState reconstructs the concrete Filter a State captured. A
// nonce filter's Bloom pair must pass bloom.RestorePingPong's checks.
func RestoreState(st State) (Filter, error) {
	switch st.Kind {
	case "none":
		return None{}, nil
	case "nonce":
		if st.PingPong == nil {
			return nil, fmt.Errorf("replay: nonce filter state without Bloom pair")
		}
		pp, err := bloom.RestorePingPong(*st.PingPong)
		if err != nil {
			return nil, fmt.Errorf("replay: nonce filter: %w", err)
		}
		return &NonceFilter{pp: pp}, nil
	case "timed":
		f := &TimedFilter{Window: st.Window, seen: make(map[string]time.Time, len(st.Seen)), lastGC: st.LastGC}
		for _, s := range st.Seen {
			f.seen[string(s.Nonce)] = s.At
		}
		return f, nil
	default:
		return nil, fmt.Errorf("replay: unknown filter state kind %q", st.Kind)
	}
}
