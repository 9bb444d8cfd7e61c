package fleet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"sslab/internal/netsim"
)

// TestActivityTableMatchesFormula: every entry of the per-minute table
// is the diurnal formula's value, bit for bit, so a lookup thins
// exactly the candidates the formula would.
func TestActivityTableMatchesFormula(t *testing.T) {
	for _, floor := range []float64{0, 0.15, 0.5, 1} {
		tab := newActivityTable(floor)
		for m := int64(-90); m < 24*60; m++ {
			got, want := tab[m+90], activityAt(m, floor)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("floor %v minute %d: table %v, formula %v", floor, m, got, want)
			}
		}
	}
}

// walkCandidates is the candidate-by-candidate reference for armNext,
// the way wake-ups ran before thinning moved to scheduling time: from
// the candidate at offset c, which drew gap, each next candidate is a
// time.Time, scheduled only before End and clamped to the one before
// it (as the heap clamps an event in the past to now); it then draws
// its gap and accept values and is thinned by the formula. It returns
// the first kept candidate's time (ok false if none comes before End),
// how many candidates were thinned on the way, the user's state before
// the kept candidate's draws (after the last thinned one's if none was
// kept), and whether a negative gap was clamped.
func walkCandidates(f *Fleet, u user, c, gap time.Duration, floor float64) (kept time.Time, ok bool, thinned int64, state uint64, clamped bool) {
	end := netsim.Epoch.Add(f.span)
	now := netsim.Epoch.Add(c)
	for {
		next := now.Add(gap)
		if !next.Before(end) {
			return time.Time{}, false, thinned, u.rng, clamped
		}
		if next.Before(now) {
			next, clamped = now, true
		}
		now = next
		before := u.rng
		gap = f.expGap(&u)
		m := (int64(now.Sub(netsim.Epoch)/time.Minute) + int64(u.phaseMin)) % (24 * 60)
		if u.f64() < activityAt(m, floor) {
			return now, true, thinned, before, clamped
		}
		thinned++
	}
}

// TestArmNextMatchesCandidateWalk: armNext schedules the candidate the
// reference walk keeps, counts the candidates it thins, and leaves the
// user's state where the walk does — over random states and phases, at
// floors that thin nothing, some and most candidates, for runs whose
// candidates reach End, whose gaps overflow a Duration to a negative
// value, and whose offsets lie so close to the longest span a Duration
// holds that adding a gap to them would overflow.
func TestArmNextMatchesCandidateWalk(t *testing.T) {
	maxSpan := time.Duration(math.MaxInt64/int64(time.Hour)) * time.Hour
	shapes := []struct {
		name    string
		span    time.Duration
		meanGap time.Duration
		start   func(r *rand.Rand, span time.Duration) time.Duration
	}{
		{"6h at 30min", 6 * time.Hour, 30 * time.Minute, func(r *rand.Rand, span time.Duration) time.Duration {
			return time.Duration(r.Int63n(int64(span)))
		}},
		{"24h at 3min, last hour", 24 * time.Hour, 3 * time.Minute, func(r *rand.Rand, span time.Duration) time.Duration {
			return span - time.Duration(r.Int63n(int64(time.Hour)))
		}},
		{"longest span, last hours", maxSpan, time.Hour, func(r *rand.Rand, span time.Duration) time.Duration {
			return span - time.Duration(r.Int63n(int64(4*time.Hour)))
		}},
		{"longest span, overflowing gaps", maxSpan, 1 << 62, func(r *rand.Rand, span time.Duration) time.Duration {
			return time.Duration(r.Int63n(int64(span)))
		}},
	}
	// Whether an out-of-range float converts to a negative Duration is
	// up to the architecture; where it does, the overflowing shape must
	// exercise the clamp.
	huge := 1e19
	negativeOverflow := time.Duration(huge) < 0

	r := rand.New(rand.NewSource(1))
	var kept, ended, clamped int
	for _, floor := range []float64{0, 0.15, 1} {
		var thinned int64
		for _, sh := range shapes {
			for trial := 0; trial < 300; trial++ {
				f := &Fleet{sim: netsim.NewSim(), span: sh.span, meanGap: sh.meanGap, curve: newActivityTable(floor)}
				u := user{rng: r.Uint64(), phaseMin: int16(r.Intn(181) - 90)}
				c := sh.start(r, sh.span)
				// armNext runs after the current candidate's two draws.
				gap := f.expGap(&u)
				u.f64()

				wantAt, wantOK, wantThinned, wantState, wantClamped := walkCandidates(f, u, c, gap, floor)
				f.armNext(&userArg{f: f}, &u, c, gap)

				ev := f.sim.PendingEvents()
				switch {
				case wantOK && (len(ev) != 1 || !ev[0].At.Equal(wantAt)):
					t.Fatalf("floor %v %s trial %d: scheduled %v, want one wake-up at %v", floor, sh.name, trial, ev, wantAt)
				case !wantOK && len(ev) != 0:
					t.Fatalf("floor %v %s trial %d: scheduled %v, want none before End", floor, sh.name, trial, ev)
				}
				if f.wakeups != wantThinned || u.rng != wantState {
					t.Fatalf("floor %v %s trial %d: counted %d thinned at state %#x, want %d at %#x",
						floor, sh.name, trial, f.wakeups, u.rng, wantThinned, wantState)
				}
				if wantOK {
					kept++
				} else {
					ended++
				}
				thinned += wantThinned
				if wantClamped {
					clamped++
				}
			}
		}
		if (floor == 1) != (thinned == 0) {
			t.Errorf("floor %v: %d candidates thinned", floor, thinned)
		}
	}
	if kept == 0 || ended == 0 {
		t.Errorf("%d walks kept a candidate and %d reached End, want both", kept, ended)
	}
	if negativeOverflow && clamped == 0 {
		t.Error("no negative gap was clamped")
	}
}

// TestRunToPastEnd: wake-ups stop at End on their own, so running past
// End reports what running to End does — also when the mean gap is
// longer than the run, and the stagger puts first wake-ups after End.
func TestRunToPastEnd(t *testing.T) {
	cfg := Config{Seed: 3, Users: 200, Hours: 1, PeakFlowsPerHour: 0.5}
	var reps [2][]byte
	for i, past := range []time.Duration{0, 3 * time.Hour} {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTo(e.End().Add(past)); err != nil {
			t.Fatal(err)
		}
		rep, err := e.Report()
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = reportJSON(t, rep)
	}
	if !bytes.Equal(reps[0], reps[1]) {
		t.Errorf("RunTo(End + 3h) reported\n%s\nRunTo(End) reported\n%s", reps[1], reps[0])
	}
}
