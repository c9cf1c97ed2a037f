// Command perfbench times one benchmark workload end to end and, in a
// traced run, layer by layer. It runs the workload's experiment call
// repeatedly with one seed for the given number of seconds, checks every
// result, and prints one JSON object as its last line of output:
//
//	perfbench --workload pkt_websearch --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"flowbender/internal/experiments"
)

// A run builds its fabrics and inputs at least setupMinReps times and until
// setupBudget has been spent; setup_s is the median. The collector is
// paused during each repetition and run between them: when it runs depends
// on the heap the run left behind, not on the constructors. On a 2-core
// VM, the median of 200 repetitions of pkt_table1's set-up ranged from 5.0
// to 9.3 ms across processes with the collector running, and from 1.7 to
// 1.9 ms with it paused.
const (
	setupMinReps = 11
	setupBudget  = time.Second
)

func main() {
	name := flag.String("workload", "", "workload: pkt_websearch, pkt_table1 or fluid_mega")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "how long to keep repeating the experiment call")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a CPU-profiled run, 0 = end-to-end metrics")
	flag.Parse()
	b, ok := lookup(*name)
	if !ok || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --trace %d\n", *name, *trace)
		os.Exit(2)
	}
	rep, err := measure(b, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// span is one timed step of the traced run, relative to the run's start.
type span struct {
	name       string
	start, end time.Duration
}

// runner makes a run's experiment calls and checks their results.
type runner struct {
	w       io.Writer
	start   time.Time
	digests map[int64]string // first rendered digest per seed
	rep     report
	spans   []span
}

func (r *runner) span(name string, f func()) {
	s := span{name: name, start: time.Since(r.start)}
	f()
	s.end = time.Since(r.start)
	r.spans = append(r.spans, s)
}

// check renders the result, compares its digest with the first call's with
// the same seed, and counts the call as failed if it differs or any planned
// unit failed.
func (r *runner) check(label string, seed int64, oc outcome) {
	var out bytes.Buffer
	oc.result.Print(&out)
	sum := sha256.Sum256(out.Bytes())
	digest := hex.EncodeToString(sum[:8])
	if r.digests == nil {
		r.digests = map[int64]string{}
	}
	if _, ok := r.digests[seed]; !ok {
		r.digests[seed] = digest
	}
	r.rep.Attempted++
	ok := digest == r.digests[seed] && oc.failed == 0
	if !ok {
		r.rep.Failed++
	}
	fmt.Fprintf(r.w, "%s seed=%d: digest=%s failed=%d/%d ok=%v\n", label, seed, digest, oc.failed, oc.planned, ok)
}

func (r *runner) metric(name string, v float64, unit string) {
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// measure runs workload b for budget and returns the end-to-end metrics,
// or with traced the per-layer ones. A run first calls the experiment once
// for each seed of its panel, then cycles through the panel again: at least
// one call, and more while the next is expected to end within budget.
// Every repeat must render the same digest as the first call with its seed.
func measure(b bench, seed int64, budget time.Duration, traced bool, w io.Writer) (report, error) {
	r := &runner{w: w, start: time.Now(), rep: report{Metrics: map[string]metric{}}}

	o := b.base
	var (
		walls     []float64
		peaks     []float64 // resident-set high-water mark of each call, MB
		firstWall []float64 // untraced walls of panel seed 0
		panel     = make([]outcome, b.panel)
		perf0     = &experiments.PerfStats{}
		mem0      runtime.MemStats // across the first call
	)
	for i, t0 := 0, time.Now(); i <= b.panel || time.Since(t0).Seconds()+mean(walls) <= budget.Seconds(); i++ {
		p := i % b.panel
		o.Seed = b.subSeed(seed, p)
		if err := freshHeap(); err != nil {
			return report{}, err
		}
		o.Perf = nil
		var m0 runtime.MemStats
		if i == 0 {
			o.Perf = perf0
			runtime.ReadMemStats(&m0)
		}
		c0 := time.Now()
		oc := b.call(o)
		wall := time.Since(c0).Seconds()
		walls = append(walls, wall)
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		peaks = append(peaks, rss)
		if i == 0 {
			runtime.ReadMemStats(&mem0)
			mem0.TotalAlloc -= m0.TotalAlloc
			mem0.NumGC -= m0.NumGC
		}
		if p == 0 {
			firstWall = append(firstWall, wall)
		}
		if i < b.panel {
			panel[p] = oc
		}
		r.check(fmt.Sprintf("%s call %d run_s=%.4f peak_rss_mb=%.1f", b.name, i+1, wall, rss), o.Seed, oc)
	}
	o.Perf = nil
	r.printPanelDigest(b, seed)

	// The twins run outside run_s, one per panel seed.
	twinErrs := make([]float64, b.panel)
	twin := func(p int) {
		if !b.twin {
			return
		}
		to := o
		to.Seed = b.subSeed(seed, p)
		to.Engine = experiments.EngineFluid
		fl := mixOutcome(experiments.ProductionMix(to))
		r.rep.Attempted++
		e, err := fluidP99Err(panel[p].mix, fl.mix)
		ok := err == nil && e <= experiments.FidelityP99Bound && fl.failed == 0
		if !ok {
			r.rep.Failed++
		}
		twinErrs[p] = e
		fmt.Fprintf(w, "%s fluid twin seed=%d: p99_err=%.4f (bound %.2f) failed=%d/%d err=%v ok=%v\n",
			b.name, to.Seed, e, experiments.FidelityP99Bound, fl.failed, fl.planned, err, ok)
	}
	for p := range panel {
		twin(p)
	}

	if !traced {
		logRatio := 0.0
		for _, oc := range panel {
			logRatio += math.Log(oc.fbVsECMP)
		}
		r.metric("run_s", median(walls), "s")
		// Set-up is timed after the calls: with the collector paused, its
		// heap grows past what the calls need and would raise their peak
		// RSS.
		r.metric("setup_s", median(timeSetup(b)), "s")
		// A call's peak moves between levels with collector timing (44 and
		// 53 MB for one pkt_websearch seed), and that run holds three calls:
		// their median jumps between the levels where the mean does not.
		r.metric("peak_rss_mb", mean(peaks), "MB")
		r.metric("fb_p99_vs_ecmp", math.Exp(logRatio/float64(b.panel)), "ratio")
		r.finish()
		// These read 0 on some or all workloads, so they are printed to be
		// read, not gated; the traced run reports them per layer.
		var failed, planned int64
		var ooo float64
		for _, oc := range panel {
			failed += oc.failed
			planned += oc.planned
			if oc.mix != nil {
				ooo += oc.mix.Cells[experiments.FlowBender].OOOFrac / float64(b.panel)
			}
		}
		printMetric(w, "failed_frac", float64(failed)/float64(planned), "fraction")
		if b.twin {
			printMetric(w, "fb_ooo_frac", ooo, "fraction")
			printMetric(w, "fluid_p99_err", slices.Max(twinErrs), "fraction")
		}
		return r.rep, nil
	}

	// The traced run repeats panel seed 0 under the CPU profiler.
	if err := freshHeap(); err != nil {
		return report{}, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	var (
		tracedWall float64
		oc         outcome
	)
	o.Seed = b.subSeed(seed, 0)
	r.span("setup", b.setup)
	r.span("experiment", func() {
		c0 := time.Now()
		oc = b.call(o)
		tracedWall = time.Since(c0).Seconds()
	})
	r.span("render+checks", func() { r.check(b.name+" traced call", o.Seed, oc) })
	r.span("twin", func() { twin(0) })
	pprof.StopCPUProfile()
	for _, s := range r.spans {
		fmt.Fprintf(w, "span %-14s %10.3f ms .. %10.3f ms\n", s.name, ms(s.start), ms(s.end))
	}

	cpu, total, err := foldProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	var named int64
	for _, l := range layers {
		named += cpu[l]
		r.metric(l+".cpu_s", float64(cpu[l])/1e9, "s")
	}
	r.metric("other.cpu_s", float64(cpu["other"])/1e9, "s")
	namedFrac := 0.0
	if total > 0 {
		namedFrac = float64(named) / float64(total)
	}
	r.metric("bench.named_frac", namedFrac, "fraction")
	r.metric("bench.trace_overhead_frac", tracedWall/median(firstWall)-1, "fraction")

	// Counts are exact and belong to panel seed 0, like the profile.
	events := perf0.Events.Load()
	r.metric("sim.events", float64(events), "count")
	r.metric("sim.sim_s", float64(perf0.SimNanos.Load())/1e9, "s")
	nsPerEvent := 0.0
	if events > 0 {
		nsPerEvent = float64(cpu["sim"]) / float64(events)
	}
	r.metric("sim.cpu_ns_per_event", nsPerEvent, "ns")
	r.metric("runtime.alloc_mb", float64(mem0.TotalAlloc)/1e6, "MB")
	r.metric("runtime.gc_cycles", float64(mem0.NumGC), "count")
	first := panel[0]
	r.metric("experiments.failed_frac", float64(first.failed)/float64(first.planned), "fraction")
	r.metric("fluid.p99_err", twinErrs[0], "fraction")

	// Table 1 exposes no per-flow counters; its values read 0 and the
	// line below says so.
	var c mixCounts
	if first.mix != nil {
		c = countMix(first.mix)
	} else {
		fmt.Fprintf(w, "%s: flow, transport and reroute counters are not exposed by experiments.Table1; reported as 0\n", b.name)
	}
	r.metric("workload.flows_started", float64(c.started), "count")
	r.metric("stats.flows_recorded", float64(c.recorded), "count")
	r.metric("tcp.timeouts", float64(c.timeouts), "count")
	r.metric("tcp.retransmits", float64(c.retransmits), "count")
	r.metric("tcp.fb_ooo_frac", c.fbOOO, "fraction")
	r.metric("core.reroutes", float64(c.reroutes), "count")
	r.finish()
	return r.rep, nil
}

// timeSetup builds the workload's fabrics and inputs repeatedly and returns
// the time each repetition took, in seconds.
func timeSetup(b bench) []float64 {
	var setups []float64
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	for spent := 0.0; len(setups) < setupMinReps || spent < setupBudget.Seconds(); {
		runtime.GC()
		t0 := time.Now()
		b.setup()
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	return setups
}

// printPanelDigest prints one digest over the digests of the panel's seeds.
func (r *runner) printPanelDigest(b bench, seed int64) {
	h := sha256.New()
	for p := 0; p < b.panel; p++ {
		io.WriteString(h, r.digests[b.subSeed(seed, p)])
	}
	fmt.Fprintf(r.w, "%s seed=%d panel digest=%s\n", b.name, seed, hex.EncodeToString(h.Sum(nil)[:8]))
}

// finish prints every metric with its unit and decides correctness.
func (r *runner) finish() {
	names := make([]string, 0, len(r.rep.Metrics))
	for n := range r.rep.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		printMetric(r.w, n, r.rep.Metrics[n].Value, r.rep.Metrics[n].Unit)
	}
	r.rep.Correct = r.rep.Failed == 0
}

func printMetric(w io.Writer, name string, v float64, unit string) {
	fmt.Fprintf(w, "%-28s %14.6g %s\n", name, v, unit)
}

// mixCounts sums a production-mix result's exact per-flow counters over
// its schemes.
type mixCounts struct {
	started, recorded, timeouts, retransmits, reroutes int64
	fbOOO                                              float64
}

func countMix(r *experiments.ProductionMixResult) mixCounts {
	var c mixCounts
	for _, s := range r.Schemes {
		cell := r.Cells[s]
		c.started += cell.Started
		c.recorded += cell.All.N
		c.timeouts += cell.Timeouts
		c.retransmits += cell.Retransmits
		c.reroutes += cell.Reroutes
	}
	c.fbOOO = r.Cells[experiments.FlowBender].OOOFrac
	return c
}

// freshHeap makes the next call start as in a fresh process: the heap is
// collected, its memory returned to the OS, and the resident-set high-water
// mark reset to the current resident set (see proc(5), clear_refs).
func freshHeap() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
