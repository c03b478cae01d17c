// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulation pipeline stage by stage through each module's public
// functions, the way cmd/parsim does (gen.ByName, opt.Optimize,
// vectors.Clocked or ClockedBatch, partition.New, the engine's Run or
// dist.Run, trace.WriteVCD), on one workload per invocation, one job at a
// time in a closed loop, for a fixed number of seconds. Every run is
// checked against the sequential golden waveform.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload long-optimistic --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics. With --trace 0 the metrics are the
// end-to-end ones, from untraced runs; --trace 1 adds one traced run and
// reports the per-layer split instead. Earlier lines print the
// provenance and every metric by name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/eventq"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics a user of the simulator sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"vectors_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-module metrics, named <module>.<metric>. Every
// workload reports all of them; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"gen.build_s", "s"},
	{"opt.optimize_s", "s"},
	{"opt.gates_removed", "count"},
	{"vectors.stimulus_s", "s"},
	{"partition.new_s", "s"},
	{"partition.allocs", "count"},
	{"partition.cut_links", "count"},
	{"partition.imbalance", "ratio"},
	{"kernel.evaluate_s", "s"},
	{"kernel.evaluations", "count"},
	{"kernel.events_applied", "count"},
	{"eventq.events_scheduled", "count"},
	{"eventq.failed.heap", "count"},
	{"eventq.failed.calendar", "count"},
	{"eventq.failed.wheel", "count"},
	{"mpsc.messages_sent", "count"},
	{"mpsc.block_s", "s"},
	{"cmb.nulls_sent", "count"},
	{"cmb.null_ratio", "ratio"},
	{"timewarp.rollbacks", "count"},
	{"timewarp.events_rolled_back", "count"},
	{"timewarp.useful_ratio", "ratio"},
	{"timewarp.rollback_s", "s"},
	{"timewarp.gvt_rounds", "count"},
	{"timewarp.gvt_s", "s"},
	{"sync.barriers", "count"},
	{"sync.barrier_s", "s"},
	{"trace.vcd_s", "s"},
	{"trace.waveform_samples", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.dropped_spans", "count"},
	{"ckpt.full_bytes", "bytes"},
	{"ckpt.delta_bytes", "bytes"},
	{"ckpt.delta_ratio", "ratio"},
	{"wire.mesh_bytes", "bytes"},
	{"wire.hub_bytes", "bytes"},
	{"wire.bytes_per_event", "bytes"},
	{"dist.gvt_rounds", "count"},
	{"dist.reconnects", "count"},
	{"runtime.alloc_mb.setup", "MB"},
	{"runtime.alloc_mb.run", "MB"},
	{"runtime.alloc_mb.vcd", "MB"},
	{"runtime.gc_cycles.setup", "count"},
	{"runtime.gc_cycles.run", "count"},
	{"runtime.gc_cycles.vcd", "count"},
	{"stats.modeled_speedup", "x"},
	{"stats.host_speedup", "x"},
}

// minIterations is the fewest timed iterations a run makes, however long
// they take.
const minIterations = 3

func main() {
	var (
		workload = flag.String("workload", "", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the stimulus, and the lanes the wide golden check samples")
		seconds  = flag.Float64("seconds", 20, "length of the timed loop")
		traced   = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	)
	flag.Parse()
	if *workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w, ok := findSpec(*workload)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload with one of %v or all, --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	if err := runWorkload(w, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// runAll runs every workload, each in its own process so that peak
// memory is per workload.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append(args, "--workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		fmt.Printf("== %s\n", name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload: an untimed warm-up setup that also builds the
// golden reference and runs the queue cross-check, then timed iterations
// of setup, engine call and VCD write until the time is up, then, when
// traced, one extra traced engine run.
func runWorkload(w spec, seed int64, seconds float64, traced bool) error {
	dir, err := runDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	vcdPath := filepath.Join(dir, "out.vcd")

	fixed := sample{}
	p0, err := setup(w, seed, dir, sample{})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	g, err := makeGolden(w, seed, p0)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if p0.part == nil {
		// The dist shards partition inside dist.Run; partition the same
		// way here to measure the partition layer.
		smp := sample{}
		if p0.part, err = newPartition(w, p0.c, smp); err != nil {
			return fmt.Errorf("partition: %w", err)
		}
		fixed["partition.new_s"], fixed["partition.allocs"] = smp["partition.new_s"], smp["partition.allocs"]
	}
	fixed["partition.cut_links"] = float64(p0.part.CutLinks(p0.c))
	fixed["partition.imbalance"] = p0.part.Imbalance(partition.WeightsUniform(p0.c))
	qfail, err := queueCheck(w, seed, p0)
	if err != nil {
		return fmt.Errorf("queue check: %w", err)
	}
	for impl, n := range qfail {
		fixed["eventq.failed."+impl.String()] = float64(n)
	}
	prov := map[string]any{
		"workload": w.name, "seed": seed, "engine": w.engine.String(), "queue": eventq.ImplHeap.String(),
		"gates_generated": p0.orig.NumGates(), "gates": p0.c.NumGates(),
		"cycles": w.cycles, "lanes": max(w.lanes, 1), "lps": w.lps, "shards": w.shards,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	p0 = nil

	model := stats.DefaultCostModel()
	var samples []sample
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minIterations || time.Now().Before(deadline); i++ {
		// Each iteration starts from a collected heap and measures its own
		// peak. The heap's pages stay mapped: returning them to the kernel
		// made every iteration fault them in again, which added noise.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return fmt.Errorf("reset peak RSS: %w", err)
		}
		smp := sample{}
		t0 := time.Now()
		p, err := setup(w, seed, dir, smp)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		smp["setup_s"] = time.Since(t0).Seconds()
		attempted++
		var o *outcome
		_, err = smp.stage("engine_s", "run", func() (err error) {
			o, err = run(w, seed, p, eventq.ImplHeap, nil, dir)
			return err
		})
		if err != nil {
			failed++
			fmt.Printf("run %d failed: %v\n", i, err)
			continue
		}
		var n int
		_, err = smp.stage("trace.vcd_s", "vcd", func() (err error) {
			n, err = writeVCD(vcdPath, p, o)
			return err
		})
		if err != nil {
			return fmt.Errorf("write VCD: %w", err)
		}
		if smp["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return err
		}
		if err := check(w, p, g, o); err != nil {
			failed++
			fmt.Printf("run %d differs from the golden waveform: %v\n", i, err)
			continue
		}
		smp["trace.waveform_samples"] = float64(n)
		smp["wall_s"] = smp["setup_s"] + smp["engine_s"] + smp["trace.vcd_s"]
		smp["vectors_per_s"] = p.vectorCount() / smp["engine_s"]
		smp["stats.host_speedup"] = g.hostS / smp["engine_s"]
		if o.stats != nil {
			smp.addCounters(o.stats, w.engine == engineTimeWarp)
			seqTime := stats.SequentialTime(model, g.work.Evaluations, g.work.EventsApplied, g.work.EventsScheduled)
			smp["stats.modeled_speedup"] = stats.Speedup(seqTime, o.stats.ModeledTime(model))
		}
		if o.dist != nil {
			smp.addDistGauges(o.gauge, o.dist.Events)
		}
		fmt.Printf("iteration %d setup_s=%.4f engine_s=%.4f vcd_s=%.4f peak_rss_mb=%.1f\n",
			i, smp["setup_s"], smp["engine_s"], smp["trace.vcd_s"], smp["peak_rss_mb"])
		samples = append(samples, smp)
	}
	med := medians(samples)
	// An iteration's peak is bimodal, depending on whether a collection
	// lands before the heap's high point, so the median flips between the
	// modes from run to run; the mean of the peaks does not.
	med["peak_rss_mb"] = mean(samples, "peak_rss_mb")
	for k, v := range fixed {
		med[k] = v
	}

	if traced && w.engine != engineDist {
		attempted++
		ok, err := tracedRun(w, seed, g, med, dir)
		if err != nil {
			return err
		}
		if !ok {
			failed++
		}
	}
	prov["iterations"] = len(samples)
	return report(prov, med, attempted, failed, traced)
}

// tracedRun makes one engine call with a tracer, checks it, and records
// the span sums per phase and the tracing overhead into med.
func tracedRun(w spec, seed int64, g *golden, med sample, dir string) (bool, error) {
	p, err := setup(w, seed, dir, sample{})
	if err != nil {
		return false, err
	}
	tr := trace.NewTracer(w.engine.String())
	// Far above the spans a run records, so that none are dropped.
	tr.SetMaxSpans(1 << 24)
	runtime.GC()
	t0 := time.Now()
	o, err := run(w, seed, p, eventq.ImplHeap, tr, dir)
	tracedS := time.Since(t0).Seconds()
	if err != nil {
		fmt.Printf("traced run failed: %v\n", err)
		return false, nil
	}
	if err := check(w, p, g, o); err != nil {
		fmt.Printf("traced run differs from the golden waveform: %v\n", err)
		return false, nil
	}
	if err := med.addSpans(tr); err != nil {
		return false, err
	}
	if med["engine_s"] > 0 {
		med["trace.overhead_ratio"] = tracedS / med["engine_s"]
	}
	return true, nil
}

// report prints the provenance and metric lines, then the result line.
func report(prov map[string]any, med sample, attempted, failed int, traced bool) error {
	b, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", b)
	failedFrac := float64(failed) / float64(attempted)
	for _, m := range endToEnd {
		fmt.Printf("end-to-end %-24s %14.6g %s\n", m.name, med[m.name], m.unit)
	}
	if v, ok := med["stats.modeled_speedup"]; ok {
		fmt.Printf("end-to-end %-24s %14.6g %s\n", "modeled_speedup", v, "x")
	} else {
		fmt.Printf("end-to-end %-24s %14s %s\n", "modeled_speedup", "n/a", "x (dist.Run reports no modeled time)")
	}
	fmt.Printf("end-to-end %-24s %14.6g %s\n", "failed_frac", failedFrac, "fraction")
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, m := range perLayer {
			fmt.Printf("layer %-29s %14.6g %s\n", m.name, med[m.name], m.unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.name] = value{med[m.name], m.unit}
	}
	b, err = json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
