package main

import (
	"fmt"
	"io"
	"math"

	"flowbender/internal/experiments"
	"flowbender/internal/fluid"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// bench is one benchmark workload: a fixed call into a public experiments
// entry point, the same call `fbsim -exp production|table1` makes.
type bench struct {
	name string
	// base holds every option except Seed, which each run sets.
	base experiments.Options
	// fabric is the shape of base.Scale, for the set-up constructors.
	fabric topo.Params
	// table1 selects experiments.Table1; otherwise the workload runs
	// experiments.ProductionMix.
	table1 bool
	// twin also runs the production mix on the fluid engine with otherwise
	// identical options and checks its p99 FCTs against the packet run's.
	twin bool
	// panel is how many seeds, derived from the run's seed, one run
	// covers. Simulated work and results vary from seed to seed, so a run
	// reports over the whole panel rather than one draw.
	panel int
}

// benches are the workloads, sized so a panel of calls plus one repeat
// takes about 30 seconds on a 2-core machine (one call: about 8-12 s,
// 3-5 s and 1 s). Every one runs two simulation points at a time, matching
// that machine. pkt_websearch keeps 3000 flows per scheme: at 1000 the
// fluid twin's p99 strayed up to 42% from the packet engine's on some
// seeds, at 3000 at most 18% over 26 seeds.
var benches = []bench{
	{
		name:   "pkt_websearch",
		base:   experiments.Options{Scale: experiments.ScalePaper, FlowCount: 3000, Workload: "websearch", Load: 0.5, Parallelism: 2},
		fabric: topo.PaperScale(),
		twin:   true,
		panel:  2,
	},
	{
		name:   "pkt_table1",
		base:   experiments.Options{Scale: experiments.ScaleTiny, Repeats: 1, Parallelism: 2},
		fabric: topo.TinyScale(),
		table1: true,
		panel:  5,
	},
	{
		name: "fluid_mega",
		base: experiments.Options{Scale: experiments.ScaleMega, Engine: experiments.EngineFluid, FlowCount: 20000,
			Workload: "websearch", Load: 0.5, MixSchemes: []experiments.Scheme{experiments.ECMP, experiments.FlowBender}, Parallelism: 2},
		fabric: topo.MegaScale(),
		panel:  12,
	},
}

// subSeed is the seed of panel entry i of a run with seed s. Panels of
// distinct run seeds never overlap.
func (b bench) subSeed(s int64, i int) int64 {
	return s*int64(b.panel) + int64(i)
}

func lookup(name string) (bench, bool) {
	for _, b := range benches {
		if b.name == name {
			return b, true
		}
	}
	return bench{}, false
}

// setup builds every fabric and input the workload's simulation points
// need, through the public constructors the experiments use internally:
// one topo.NewFatTree per packet point, one fluid.NewSim per fluid point
// (the twin's included), and the flow-size CDF.
func (b bench) setup() {
	var packet, fluidPts int
	switch {
	case b.table1:
		packet = 3 * len(experiments.AllSchemes) * b.base.Repeats
	case b.base.Engine == experiments.EngineFluid:
		fluidPts = len(b.schemes())
	default:
		packet = len(b.schemes())
		if b.twin {
			fluidPts = packet
		}
	}
	for i := 0; i < packet; i++ {
		topo.NewFatTree(sim.NewEngine(), b.fabric)
	}
	for i := 0; i < fluidPts; i++ {
		fluid.NewSim(sim.NewEngine(), fluid.Config{Params: b.fabric})
	}
	if !b.table1 {
		if _, err := workload.NamedCDF(b.base.Workload); err != nil {
			panic(err)
		}
	}
}

func (b bench) schemes() []experiments.Scheme {
	if len(b.base.MixSchemes) > 0 {
		return b.base.MixSchemes
	}
	return experiments.DefaultMixSchemes
}

// outcome is what one experiment call produced, reduced to the values the
// benchmark checks and reports.
type outcome struct {
	result interface{ Print(io.Writer) }
	// planned counts the units failed is out of: flows for the production
	// mix, (k, scheme) cells for Table 1.
	planned, failed int64
	// fbVsECMP is FlowBender's p99 FCT over ECMP's (production mix) or
	// FlowBender's max FCT over ECMP's summed over the k rows (Table 1).
	fbVsECMP float64
	// mix holds the production mix's cells; nil for Table 1, which exposes
	// no per-flow counters.
	mix *experiments.ProductionMixResult
}

func (b bench) call(o experiments.Options) outcome {
	if b.table1 {
		return table1Outcome(experiments.Table1(o))
	}
	return mixOutcome(experiments.ProductionMix(o))
}

func mixOutcome(r *experiments.ProductionMixResult) outcome {
	oc := outcome{result: r, mix: r}
	for _, s := range r.Schemes {
		c := r.Cells[s]
		oc.planned += int64(r.Flows)
		oc.failed += c.Incomplete + c.NotStarted
	}
	oc.fbVsECMP = r.Cells[experiments.FlowBender].All.P99ms / r.Cells[experiments.ECMP].All.P99ms
	return oc
}

// table1Outcome counts a (k, scheme) cell as failed when its mean or max is
// not finite or its max lies below the ideal completion time, which is the
// least time the k flows' bytes need on the cell's paths. (The mean may lie
// below it: when flows share a path unfairly, some finish early.) Table 1
// averages finished flows only, so a cell that lost a flow can still pass:
// the count is a lower bound.
func table1Outcome(r *experiments.Table1Result) outcome {
	oc := outcome{result: r}
	for ri, row := range r.Rows {
		for _, s := range r.Schemes {
			mean, max := r.Cell(ri, s)
			oc.planned++
			if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(max) || math.IsInf(max, 0) || max < row.IdealMs {
				oc.failed++
			}
		}
	}
	var fb, ecmp float64
	for ri := range r.Rows {
		_, f := r.Cell(ri, experiments.FlowBender)
		_, e := r.Cell(ri, experiments.ECMP)
		fb += f
		ecmp += e
	}
	oc.fbVsECMP = fb / ecmp
	return oc
}

// fluidP99Err is the largest |fluid - packet| / packet p99 FCT over the
// schemes of two production-mix runs on the same workload.
func fluidP99Err(pkt, fl *experiments.ProductionMixResult) (float64, error) {
	var worst float64
	for _, s := range pkt.Schemes {
		p, f := pkt.Cells[s].All.P99ms, fl.Cells[s].All.P99ms
		if !(p > 0) || math.IsNaN(f) {
			return 0, fmt.Errorf("%s: no p99 FCT to compare (packet %v, fluid %v)", s, p, f)
		}
		worst = math.Max(worst, math.Abs(f-p)/p)
	}
	return worst, nil
}
