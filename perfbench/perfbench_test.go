package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"testing"

	"flowbender/internal/experiments"
	"flowbender/internal/topo"
)

// tiny shrinks a workload to test size on the same code path: same entry
// point, engine, schemes and checks, on the 16-host fabric with a panel of
// two seeds.
func tiny(b bench) bench {
	b.panel = 2
	b.base.Scale = experiments.ScaleTiny
	b.fabric = topo.TinyScale()
	switch {
	case b.base.Engine == experiments.EngineFluid:
		b.base.FlowCount = 20000
	case !b.table1:
		b.base.FlowCount = 300
	}
	return b
}

func TestWorkloadsTiny(t *testing.T) {
	for _, b := range benches {
		b := tiny(b)
		t.Run(b.name, func(t *testing.T) {
			var log bytes.Buffer
			rep, err := measure(b, 1, 0, true, &log)
			if err != nil {
				t.Fatal(err)
			}
			// Each panel seed, a repeat of the first and the traced call:
			// a repeat whose digest differs fails the run.
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 4 {
				t.Fatalf("correct=%v failed=%d/%d\n%s", rep.Correct, rep.Failed, rep.Attempted, log.String())
			}
			if v := rep.Metrics["experiments.failed_frac"].Value; v != 0 {
				t.Errorf("failed_frac = %v, want 0", v)
			}
			// Under -race the detector's own runtime, whose frames belong to
			// no layer, takes most of the profile.
			if v := rep.Metrics["bench.named_frac"].Value; v < 0.9 && !raceBuild() {
				t.Errorf("named layers hold %.3f of the profile, want >= 0.9\n%s", v, log.String())
			}
		})
	}
}

func TestEndToEndMetricsTiny(t *testing.T) {
	b, _ := lookup("pkt_websearch")
	rep, err := measure(tiny(b), 1, 0, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"run_s", "setup_s", "peak_rss_mb", "fb_p99_vs_ecmp"} {
		if m, ok := rep.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("%s = %+v, want a positive value", name, m)
		}
	}
}

func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

type text string

func (s text) Print(w io.Writer) { fmt.Fprint(w, string(s)) }

func TestCheckFailsOnDigestChangeAndFailedFlows(t *testing.T) {
	r := &runner{w: io.Discard}
	r.check("a", 1, outcome{result: text("x"), planned: 10})
	r.check("b", 2, outcome{result: text("y"), planned: 10})
	r.check("c", 1, outcome{result: text("x"), planned: 10})
	if r.rep.Failed != 0 {
		t.Fatalf("repeated results failed: %+v", r.rep)
	}
	r.check("d", 2, outcome{result: text("x"), planned: 10})
	r.check("e", 1, outcome{result: text("x"), planned: 10, failed: 1})
	if r.rep.Attempted != 5 || r.rep.Failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 5 and 2", r.rep.Attempted, r.rep.Failed)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"flowbender/internal/sim.(*Engine).Run":                 "sim",
		"flowbender/internal/runpool.MapNamed[...].func1":       "experiments",
		"flowbender/internal/fluid.(*IncSolver).solveComp":      "fluid",
		"flowbender/internal/udp.(*Sender).tick":                "other",
		"runtime.mallocgc":                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "runtime",
		"crypto/sha256.block":                                   "other",
		"main.measure":                                          "other",
		"flowbender/internal/experiments.Options.runProduction": "experiments",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
