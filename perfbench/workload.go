package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/eventq"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/sim/cmb"
	"repro/internal/sim/seq"
	"repro/internal/sim/sync"
	"repro/internal/sim/timewarp"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Stimulus and engine settings shared by every workload: the parsim
// defaults for clocked circuits, on 2-valued logic.
const (
	activity   = 0.5
	halfPeriod = circuit.Tick(40)
	system     = logic.TwoValued
)

type engineKind int

const (
	engineSync engineKind = iota
	engineTimeWarp
	engineDist
	// engineCMB is the dist shards' engine run in-process, for the queue
	// cross-check of the dist workload.
	engineCMB
)

func (e engineKind) String() string {
	return [...]string{"sync", "timewarp", "cmb-dist", "cmb"}[e]
}

// spec is one workload definition. BENCHMARK.json records why each was
// chosen and which layers it stresses and bypasses.
type spec struct {
	name     string
	circuit  string
	cycles   int
	lps      int
	lanes    int // 0 for a scalar stimulus
	engine   engineKind
	optimize bool
	shards   int // dist only
	// prefix is the number of clock cycles the queue cross-check runs.
	prefix int
}

var specs = []spec{
	// Setup-bound, the Figure 1 setting of 8 processors on a large
	// circuit: FM partitioning and the optimizer take most of the wall
	// time, the sync engine the rest. No rollback, nulls, wire or
	// checkpoints.
	{name: "big-netlist", circuit: "seq50000", cycles: 60, lps: 8, engine: engineSync, optimize: true, prefix: 20},
	// Run-bound: the kernel, event queue, mailboxes, rollback and GVT do
	// the work; setup is a few percent of the wall time.
	{name: "long-optimistic", circuit: "seq2000", cycles: 1000, lps: 4, engine: engineTimeWarp, prefix: 100},
	// The same kernel, queue and mailboxes used conservatively, with null
	// messages and blocking, plus the only use of the wire and checkpoint
	// layers.
	{name: "dist-conservative", circuit: "seq2000", cycles: 300, lps: 8, engine: engineDist, shards: 2, prefix: 100},
	// The only wide-plane workload: logic.Word evaluation, the wide
	// kernel and the wide copy of the sync loop big-netlist runs scalar.
	{name: "wide-lanes", circuit: "seq2000", cycles: 200, lps: 4, lanes: 64, engine: engineSync, prefix: 50},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// ckptEvery is the dist workload's shard checkpoint pace in modeled
// ticks: about one boundary per 25 clock cycles.
const ckptEvery = 50 * uint64(halfPeriod)

// prepared is the output of the stages before the engine call.
type prepared struct {
	orig  *circuit.Circuit // as generated
	c     *circuit.Circuit // as simulated: optimized when the workload optimizes
	remap *opt.Remap
	stim  *vectors.Stimulus     // scalar workloads, on c
	ws    *vectors.WideStimulus // wide workload, on c
	lanes []*vectors.Stimulus   // the wide workload's per-lane stimuli
	until circuit.Tick
	part  *partition.Partition // nil for dist: the shards partition
	// benchPath is the dist workload's netlist file.
	benchPath string
}

// structureSeed generates every workload's circuit and seeds its
// partitioner. They are fixed parts of a workload; --seed varies only the
// stimulus, so runs on different seeds measure the same netlist.
const structureSeed = 1

// roundTrip writes c to path as a .bench netlist and reads it back: the
// circuit the dist shards simulate.
func roundTrip(c *circuit.Circuit, path string) (*circuit.Circuit, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := bench.Write(f, c, ""); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.Read(f)
}

// clockName finds the clock input under the names the parsim CLI and the
// dist shards accept.
func clockName(c *circuit.Circuit) (string, error) {
	for _, name := range []string{"clk", "CLK", "__CLK"} {
		if id, ok := c.ByName(name); ok && c.Gate(id).Kind == circuit.Input {
			return name, nil
		}
	}
	return "", fmt.Errorf("no clock input")
}

// setup runs gen.ByName, opt.Optimize, vectors.Clocked or ClockedBatch,
// and partition.New, recording each stage into smp. The dist shards
// build their own circuit, stimulus and partition, so the dist workload
// hands them the generated netlist as a .bench file in dir.
func setup(w spec, seed int64, dir string, smp sample) (*prepared, error) {
	p := &prepared{}
	_, err := smp.stage("gen.build_s", "setup", func() (err error) {
		if p.orig, err = gen.ByName(w.circuit, gen.Unit, structureSeed); err != nil || w.engine != engineDist {
			return err
		}
		p.benchPath = filepath.Join(dir, w.circuit+".bench")
		if p.orig, err = roundTrip(p.orig, p.benchPath); err != nil {
			return fmt.Errorf("bench file: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.c = p.orig
	if w.optimize {
		_, err := smp.stage("opt.optimize_s", "setup", func() error {
			res, err := opt.Optimize(p.orig, opt.Options{})
			if err != nil {
				return err
			}
			p.c, p.remap = res.Circuit, &res.Remap
			smp["opt.gates_removed"] = float64(res.Stats.GatesRemoved)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	_, err = smp.stage("vectors.stimulus_s", "setup", func() (err error) {
		clk, err := clockName(p.c)
		if err != nil {
			return err
		}
		cfg := vectors.ClockedConfig{Clock: clk, Cycles: w.cycles, HalfPeriod: halfPeriod, Activity: activity, Seed: seed}
		if w.lanes > 0 {
			p.ws, p.lanes, err = vectors.ClockedBatch(p.c, cfg, w.lanes, system)
			if err == nil {
				p.until = seq.WideHorizon(p.c, p.ws)
			}
			return err
		}
		p.stim, err = vectors.Clocked(p.c, cfg)
		if err == nil {
			p.until = seq.Horizon(p.c, p.stim)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if w.engine != engineDist {
		if p.part, err = newPartition(w, p.c, smp); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// newPartition runs partition.New with FM, recording its time and heap
// allocations into smp.
func newPartition(w spec, c *circuit.Circuit, smp sample) (*partition.Partition, error) {
	var part *partition.Partition
	mallocs, err := smp.stage("partition.new_s", "setup", func() (err error) {
		part, err = partition.New(partition.MethodFM, c, w.lps, partition.Options{Seed: structureSeed})
		return err
	})
	smp["partition.allocs"] = float64(mallocs)
	return part, err
}

// vectorCount is the number of stimulus vectors one engine call consumes.
func (p *prepared) vectorCount() float64 {
	if p.ws != nil {
		return float64(p.ws.NumVectors() * p.ws.Lanes)
	}
	return float64(p.stim.NumVectors())
}

// outcome is what one engine call returns.
type outcome struct {
	wf    trace.Waveform     // scalar workloads
	wwf   trace.WideWaveform // wide workload
	stats *stats.RunStats    // in-process engines
	dist  *dist.Result
	gauge map[string]float64 // dist gauges
}

// run makes one engine call on p. The partition comes prebuilt through
// Config.Partition, so partitioning is never part of the call.
func run(w spec, seed int64, p *prepared, q eventq.Impl, tr *trace.Tracer, workDir string) (*outcome, error) {
	switch w.engine {
	case engineDist:
		return runDist(w, seed, p, workDir)
	case engineSync:
		cfg := sync.Config{Partition: p.part, System: system, Queue: q, Tracer: tr}
		if p.ws != nil {
			res, err := sync.RunWide(p.c, p.ws, p.until, cfg)
			if err != nil {
				return nil, err
			}
			return &outcome{wwf: res.Waveform, stats: &res.Stats}, nil
		}
		res, err := sync.Run(p.c, p.stim, p.until, cfg)
		if err != nil {
			return nil, err
		}
		return &outcome{wf: res.Waveform, stats: &res.Stats}, nil
	case engineTimeWarp:
		res, err := timewarp.Run(p.c, p.stim, p.until, timewarp.Config{Partition: p.part, System: system, Queue: q, Tracer: tr})
		if err != nil {
			return nil, err
		}
		return &outcome{wf: res.Waveform, stats: &res.Stats}, nil
	case engineCMB:
		res, err := cmb.Run(p.c, p.stim, p.until, cmb.Config{Partition: p.part, Mode: cmb.NullEager, System: system, Queue: q, Tracer: tr})
		if err != nil {
			return nil, err
		}
		return &outcome{wf: res.Waveform, stats: &res.Stats}, nil
	}
	return nil, fmt.Errorf("workload %s: unknown engine %v", w.name, w.engine)
}

// runDist runs the cmb engine over w.shards in-process socket shards with
// the mesh data plane and delta checkpoints on. Each shard regenerates
// the circuit, stimulus and partition from the job parameters.
func runDist(w spec, seed int64, p *prepared, workDir string) (*outcome, error) {
	dir, err := os.MkdirTemp(workDir, "dist-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := metrics.NewRegistry("cmb-dist")
	res, err := dist.Run(dist.Options{
		Shards: w.shards, Engine: "cmb",
		Bench: p.benchPath, Seed: seed, Vectors: w.cycles, Activity: activity, Period: uint64(halfPeriod),
		Until: uint64(p.until), LPs: w.lps, Partition: partition.MethodFM.String(), PartitionSeed: structureSeed,
		System: system, CheckpointEvery: ckptEvery, WorkDir: dir,
		Restarts: 2, Fallback: true, Mesh: true, CkptDelta: true,
		Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	return &outcome{wf: res.Waveform, dist: res, gauge: reg.Report().Gauges}, nil
}

// golden is the sequential reference of one invocation.
type golden struct {
	wf    trace.Waveform         // scalar workloads, on the generated netlist
	lanes map[int]trace.Waveform // wide workload: the sampled lanes
	// work sums the reference runs' counters; for the wide workload it is
	// scaled from the sampled lanes to all lanes.
	work metrics.LPCounters
	// hostS is the reference's host seconds, scaled like work.
	hostS float64
}

// laneSample is how many lanes of the wide workload the golden check
// replays on the scalar sequential engine.
const laneSample = 8

// makeGolden runs seq.Run on the generated netlist and stimulus. A wide
// workload replays a seeded sample of its lanes one at a time.
func makeGolden(w spec, seed int64, p *prepared) (*golden, error) {
	g := &golden{}
	one := func(stim *vectors.Stimulus) (trace.Waveform, error) {
		s := stim
		if p.remap != nil {
			// The stimulus was built on the optimized netlist; primary
			// inputs keep their names, so map it back by name.
			var err error
			if s, err = stimulusByName(p.c, p.orig, stim); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		res, err := seq.Run(p.orig, s, p.until, seq.Config{System: system})
		if err != nil {
			return nil, err
		}
		g.hostS += time.Since(t0).Seconds()
		g.work.Add(res.Counters)
		return res.Waveform, nil
	}
	if w.lanes == 0 {
		wf, err := one(p.stim)
		g.wf = wf
		return g, err
	}
	g.lanes = map[int]trace.Waveform{}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(w.lanes)[:laneSample] {
		wf, err := one(p.lanes[k])
		if err != nil {
			return nil, err
		}
		g.lanes[k] = wf
	}
	scale := float64(w.lanes) / laneSample
	g.hostS *= scale
	g.work = metrics.LPCounters{
		Evaluations:     uint64(float64(g.work.Evaluations) * scale),
		EventsApplied:   uint64(float64(g.work.EventsApplied) * scale),
		EventsScheduled: uint64(float64(g.work.EventsScheduled) * scale),
	}
	return g, nil
}

// stimulusByName rewrites a stimulus on circuit from onto circuit to,
// matching primary inputs by name.
func stimulusByName(from, to *circuit.Circuit, s *vectors.Stimulus) (*vectors.Stimulus, error) {
	out := &vectors.Stimulus{Changes: make([]vectors.Change, len(s.Changes)), End: s.End}
	for i, ch := range s.Changes {
		id, ok := to.ByName(from.Gate(ch.Input).Name)
		if !ok {
			return nil, fmt.Errorf("input %q missing from the generated netlist", from.Gate(ch.Input).Name)
		}
		out.Changes[i] = vectors.Change{Time: ch.Time, Input: id, Value: ch.Value}
	}
	out.Sort()
	return out, nil
}

// check compares an outcome with the golden reference: the waveform,
// mapped back to the generated netlist when optimized, must be identical,
// and a dist run must finish in dist mode without a recovery.
func check(w spec, p *prepared, g *golden, o *outcome) error {
	if o.dist != nil && (o.dist.Recoveries > 0 || o.dist.Fallbacks > 0 || o.dist.FinalMode != "dist") {
		return fmt.Errorf("dist run needed %d recoveries and %d fallbacks (mode %s) with no fault injected",
			o.dist.Recoveries, o.dist.Fallbacks, o.dist.FinalMode)
	}
	if w.lanes > 0 {
		for k, want := range g.lanes {
			got := o.wwf.Lane(k, initial(p.c))
			if !trace.Equal(want, got) {
				return fmt.Errorf("lane %d: %s", k, trace.Diff(want, got, 3))
			}
		}
		return nil
	}
	got := o.wf
	if p.remap != nil {
		got = p.remap.WaveformBack(got)
	}
	if !trace.Equal(g.wf, got) {
		return fmt.Errorf("%s", trace.Diff(g.wf, got, 3))
	}
	return nil
}

// initial is the committed value of each net after time-zero
// initialization, which per-lane waveform extraction starts from.
func initial(c *circuit.Circuit) func(circuit.GateID) logic.Value {
	return func(g circuit.GateID) logic.Value {
		return system.Project(circuit.InitialValue(c.Gates[g].Kind))
	}
}

// writeVCD writes the run's output waveform (lane 0 of a wide run) as the
// parsim CLI does and returns its sample count.
func writeVCD(path string, p *prepared, o *outcome) (int, error) {
	wf := o.wf
	if o.wwf != nil {
		wf = o.wwf.Lane(0, initial(p.c))
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := trace.WriteVCD(f, p.c, p.c.Outputs, wf, "1ns"); err != nil {
		f.Close()
		return 0, err
	}
	return len(wf), f.Close()
}

// queueCheck runs the workload's engine once per eventq implementation on
// the first w.prefix cycles of the stimulus, untimed, and returns the
// number of failed runs per implementation: an error, or a waveform that
// differs from the sequential engine's on the same prefix. The dist
// workload's shards run the cmb engine, which is checked in-process on
// the partition p holds.
func queueCheck(w spec, seed int64, p *prepared) (map[eventq.Impl]int, error) {
	if w.engine == engineDist {
		w.engine = engineCMB
	}
	cut := circuit.Tick(w.prefix) * 2 * halfPeriod
	q := *p
	var want trace.Waveform
	var wantWide trace.WideWaveform
	if p.ws != nil {
		q.ws = &vectors.WideStimulus{End: cut, Lanes: p.ws.Lanes}
		for _, ch := range p.ws.Changes {
			if ch.Time < cut {
				q.ws.Changes = append(q.ws.Changes, ch)
			}
		}
		q.until = seq.WideHorizon(q.c, q.ws)
		ref, err := seq.RunWide(q.c, q.ws, q.until, seq.WideConfig{System: system})
		if err != nil {
			return nil, err
		}
		wantWide = ref.Waveform
	} else {
		q.stim = &vectors.Stimulus{End: cut}
		for _, ch := range p.stim.Changes {
			if ch.Time < cut {
				q.stim.Changes = append(q.stim.Changes, ch)
			}
		}
		q.until = seq.Horizon(q.c, q.stim)
		ref, err := seq.Run(q.c, q.stim, q.until, seq.Config{System: system})
		if err != nil {
			return nil, err
		}
		want = ref.Waveform
	}
	failed := map[eventq.Impl]int{}
	for _, impl := range []eventq.Impl{eventq.ImplHeap, eventq.ImplCalendar, eventq.ImplWheel} {
		o, err := run(w, seed, &q, impl, nil, "")
		switch {
		case err != nil:
			fmt.Printf("queue-check %s: %v\n", impl, err)
			failed[impl]++
		case p.ws != nil && !trace.EqualWide(wantWide, o.wwf):
			fmt.Printf("queue-check %s: wide waveform differs from the sequential engine\n", impl)
			failed[impl]++
		case p.ws == nil && !trace.Equal(want, o.wf):
			fmt.Printf("queue-check %s: %s", impl, trace.Diff(want, o.wf, 1))
			failed[impl]++
		}
	}
	return failed, nil
}

// runDir makes this invocation's scratch directory for VCD files and
// dist work directories, inside the checkout.
func runDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}
