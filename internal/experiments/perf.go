package experiments

import (
	"sync/atomic"
	"time"

	"flowbender/internal/sim"
)

// PerfStats accumulates simulator throughput over every simulation point an
// experiment runs: total events executed and total virtual time simulated.
// Combined with the wall-clock time of the run it yields the two headline
// throughput figures — events per wall second and simulated seconds per wall
// second — that the benchmark snapshots track alongside latency metrics.
//
// Points run concurrently on the experiment pool, so the counters are
// atomic; attach one PerfStats via Options.Perf and read it after the
// experiment returns.
type PerfStats struct {
	// Events counts engine events executed across all points.
	Events atomic.Int64
	// SimNanos sums the virtual time each point's engine reached.
	SimNanos atomic.Int64
	// FlowsCompleted counts transport flows that delivered their full
	// payload, across all points of the experiments that report it (the
	// production mix and the all-to-all family).
	FlowsCompleted atomic.Int64
}

// FlowsPerSec returns completed flows per wall-clock second.
func (p *PerfStats) FlowsPerSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(p.FlowsCompleted.Load()) / wall.Seconds()
}

// EventsPerSec returns executed events per wall-clock second.
func (p *PerfStats) EventsPerSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(p.Events.Load()) / wall.Seconds()
}

// SimSecPerWallSec returns simulated seconds advanced per wall-clock second.
func (p *PerfStats) SimSecPerWallSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return (sim.Time(p.SimNanos.Load())).Seconds() / wall.Seconds()
}

// recordFlows folds one finished simulation point's completed-flow count
// into the attached PerfStats, if any.
func (o Options) recordFlows(n int64) {
	if o.Perf == nil {
		return
	}
	o.Perf.FlowsCompleted.Add(n)
}

// recordPerf folds one finished simulation point's engine totals into the
// attached PerfStats, if any. Every experiment calls it right after its
// engine drains.
func (o Options) recordPerf(eng *sim.Engine) {
	if o.Perf == nil {
		return
	}
	o.Perf.Events.Add(int64(eng.Executed))
	o.Perf.SimNanos.Add(int64(eng.Now()))
}

// recordPerfShards folds one finished sharded point into the attached
// PerfStats: total events across shards and the furthest virtual time any
// shard reached.
func (o Options) recordPerfShards(engs []*sim.Engine) {
	if o.Perf == nil {
		return
	}
	var total int64
	var maxNow sim.Time
	for _, eng := range engs {
		total += int64(eng.Executed)
		if eng.Now() > maxNow {
			maxNow = eng.Now()
		}
	}
	o.Perf.Events.Add(total)
	o.Perf.SimNanos.Add(int64(maxNow))
}
