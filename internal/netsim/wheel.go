package netsim

import (
	"time"

	"sslab/internal/metrics"
)

// Wheel is a counted forwarder to the Sim heap, the simulator's only
// scheduler: Schedule is AtCall plus one increment of the sim's
// "wheel.scheduled" counter. It remains because the repository
// benchmark (bench/) schedules its timer microbenchmark through it and
// reads that counter.
type Wheel struct {
	sim       *Sim
	scheduled *metrics.Counter
}

// NewWheel returns a Wheel that schedules onto sim.
func NewWheel(sim *Sim) *Wheel {
	return &Wheel{sim: sim, scheduled: sim.Metrics.Counter("wheel.scheduled")}
}

// Schedule counts one timer and schedules call(arg) at absolute time
// at, exactly as Sim.AtCall does.
//
//sslab:hotpath
func (w *Wheel) Schedule(at time.Time, call func(any), arg any) {
	w.scheduled.Inc()
	w.sim.AtCall(at, call, arg)
}
