package region

import (
	"fmt"
	"math"
	"time"

	"sslab/internal/netsim"
)

// Event kinds a Schedule may contain.
const (
	// KindSensitivity sets the censor's blocking sensitivity to Value
	// (a probability — the "human factor" lever of §6).
	KindSensitivity = "sensitivity"
	// KindBlockTTL sets the block rule lifetime to Value hours with
	// JitterHours of uniform whole-hour jitter on top (zero jitter
	// skips the jitter draw).
	KindBlockTTL = "block-ttl"
	// KindPause suspends recording and probing; passive observation
	// continues. Value is unused.
	KindPause = "pause"
	// KindResume ends a pause. Value is unused.
	KindResume = "resume"
)

// Event is one timed policy change.
type Event struct {
	// AtHours is the event's virtual time, in hours from the start of
	// the run.
	AtHours float64
	// Kind is one of the Kind* constants.
	Kind string
	// Value is the kind-specific magnitude: a sensitivity for
	// KindSensitivity, a TTL in hours for KindBlockTTL; unused for
	// pause/resume.
	Value float64 `json:"Value,omitzero"`
	// JitterHours is KindBlockTTL's jitter width (see gfw.SetBlockTTL).
	JitterHours float64 `json:"JitterHours,omitzero"`
}

// Schedule is an ordered list of timed policy events. Events are
// applied inside the censor at their virtual times, between — never
// during — flow deliveries at the same instant.
type Schedule []Event

// Validate checks the schedule: events sorted by time (ties allowed —
// they apply in declaration order), non-negative times that fit a
// time.Duration, known kinds, and in-domain values (sensitivity in
// [0, 1], TTL and jitter non-negative, their sum a span that fits a
// time.Duration).
func (s Schedule) Validate() error {
	prev := math.Inf(-1)
	for i, e := range s {
		if err := netsim.CheckSpan("AtHours", e.AtHours, time.Hour); err != nil {
			return fmt.Errorf("schedule event %d: %w", i, err)
		}
		if e.AtHours < prev {
			return fmt.Errorf("schedule event %d: AtHours %v precedes event %d (%v); events must be sorted", i, e.AtHours, i-1, prev)
		}
		prev = e.AtHours
		switch e.Kind {
		case KindSensitivity:
			if math.IsNaN(e.Value) || e.Value < 0 || e.Value > 1 {
				return fmt.Errorf("schedule event %d: sensitivity must be in [0, 1], got %v", i, e.Value)
			}
		case KindBlockTTL:
			if math.IsNaN(e.Value) || e.Value < 0 {
				return fmt.Errorf("schedule event %d: block TTL hours must be non-negative, got %v", i, e.Value)
			}
			if math.IsNaN(e.JitterHours) || e.JitterHours < 0 {
				return fmt.Errorf("schedule event %d: jitter hours must be non-negative, got %v", i, e.JitterHours)
			}
			if err := netsim.CheckSpan("block TTL plus jitter hours", e.Value+e.JitterHours, time.Hour); err != nil {
				return fmt.Errorf("schedule event %d: %w", i, err)
			}
		case KindPause, KindResume:
			// no value
		default:
			return fmt.Errorf("schedule event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}
