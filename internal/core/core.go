// Package core is the unified front end over every simulation engine in
// this repository: the sequential reference, the oblivious compiled-mode
// simulator, and the synchronous, conservative, optimistic, and hybrid
// parallel engines. One Options struct configures any of them; one Report
// carries values, waveform, work counters, and modeled time, so callers
// (CLIs, examples, and the experiment harness) can compare algorithms —
// which is the whole subject of the paper.
package core

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/cmb"
	"repro/internal/sim/hybrid"
	"repro/internal/sim/oblivious"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/sim/sync"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Engine names a simulation algorithm.
type Engine uint8

// The available engines. The conservative and optimistic entries expose
// their principal protocol variants directly so experiment sweeps can
// enumerate them.
const (
	EngineSeq Engine = iota
	EngineOblivious
	EngineSync
	EngineCMB
	EngineCMBDemand
	EngineCMBDetect
	EngineTimeWarp
	EngineTimeWarpLazy
	EngineHybrid

	numEngines
)

var engineNames = [numEngines]string{
	"seq", "oblivious", "sync", "cmb", "cmb-demand", "cmb-detect",
	"timewarp", "timewarp-lazy", "hybrid",
}

// String names the engine.
func (e Engine) String() string {
	if e < numEngines {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine converts an engine name.
func ParseEngine(s string) (Engine, error) {
	for e := Engine(0); e < numEngines; e++ {
		if engineNames[e] == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("core: unknown engine %q (have %v)", s, engineNames)
}

// Engines lists every engine, for sweeps.
func Engines() []Engine {
	out := make([]Engine, numEngines)
	for i := range out {
		out[i] = Engine(i)
	}
	return out
}

// Parallel reports whether the engine divides the circuit across LPs.
func (e Engine) Parallel() bool { return e != EngineSeq && e != EngineOblivious }

// Options configures a simulation run for any engine.
type Options struct {
	// Engine selects the algorithm.
	Engine Engine
	// LPs is the logical-process count for parallel engines (also the
	// worker count for the oblivious engine). Defaults to 4.
	LPs int
	// Partition selects the gate-assignment heuristic.
	Partition partition.Method
	// ConeSplit overrides Partition with the cone-split mode: whole
	// combinational cones (bounded at sequential elements and sources)
	// become fat LPs whose kernels evaluate obliviously in one levelized
	// sweep once active, so the parallel engines synchronize only at
	// state-element boundaries. Honored by the cmb, timewarp, and hybrid
	// engines; the sync engine gets the partition but not the sweep.
	ConeSplit bool
	// PartitionSeed feeds randomized partitioners.
	PartitionSeed int64
	// Weights are pre-simulation load estimates for the partitioner.
	Weights partition.Weights
	// System is the logic value system (default 9-valued).
	System logic.System
	// Queue selects the pending-event set implementation.
	Queue eventq.Impl
	// Watch lists nets to record; nil watches primary outputs.
	Watch []circuit.GateID
	// MaxEvents bounds runaway simulations.
	MaxEvents uint64
	// Cost prices modeled times; the zero value uses the default model.
	Cost stats.CostModel

	// Cancellation, StateSaving, and Window configure the optimistic
	// engines.
	Cancellation timewarp.Cancellation
	StateSaving  timewarp.StateSaving
	Window       circuit.Tick
	// IntraWorkers is the per-cluster synchronous worker count of the
	// hybrid engine (default 2).
	IntraWorkers int

	// Metrics, when non-nil, receives the run's work counters instead of
	// the private registry Simulate otherwise creates. Report.Metrics is
	// only populated for *metrics.Registry sinks.
	Metrics metrics.Sink
	// Tracer, when non-nil, records per-LP lifecycle spans (see
	// trace.Tracer.WriteJSON for the Chrome trace_event export).
	Tracer *trace.Tracer
	// PProfLabels tags LP goroutines with runtime/pprof labels
	// (engine/lp/phase) so CPU profiles break down by logical process.
	PProfLabels bool
	// Chaos, when non-nil, wraps the asynchronous engines' per-LP
	// transports in the fault-injecting chaos layer (see
	// internal/simtest/chaos). Only the cmb, timewarp, and hybrid engines
	// honor it; test harness use only.
	Chaos *inject.Hook

	// Supervise, when non-nil, runs the engine under the supervision
	// layer: watchdog, retry/backoff, and graceful degradation to simpler
	// engines. See SuperviseOptions.
	Supervise *SuperviseOptions
	// HistoryLimit bounds the optimistic engines' saved-history memory in
	// words; 0 means unlimited. See timewarp.Config.HistoryLimit.
	HistoryLimit uint64
	// CheckpointEvery, with CheckpointDir, writes a consistent snapshot
	// every multiple of this modeled time. Snapshots are produced by a
	// sequential shadow run — legitimate because every engine reproduces
	// the sequential trajectory exactly, so the sequential state at a
	// boundary IS a consistent cut for any engine.
	CheckpointEvery circuit.Tick
	// CheckpointDir is the directory receiving ckpt-<time>.json files.
	CheckpointDir string
	// Restore, when non-nil, resumes the run from a checkpoint: engine
	// state is seeded from the snapshot and the report's waveform is the
	// checkpoint prefix plus the resumed suffix — bit-identical to an
	// uninterrupted run. The oblivious engine does not support it.
	Restore *ckpt.State

	// Adapt, when non-nil, runs the job under closed-loop adaptive
	// control: an AIMD optimism-window controller inside the optimistic
	// engines, an engine-switch supervisor migrating the run between
	// conservative and optimistic protocols via checkpoint/restart, and
	// a load rebalancer that repartitions on measured per-LP
	// utilization. Requires a parallel engine. Every decision lands in
	// Report.Adapt and the adapt_* gauges; the waveform is bit-identical
	// to a static run because every engine reproduces the sequential
	// trajectory — adaptation changes when things execute, never what
	// is computed. See internal/sim/adapt.
	Adapt *adapt.Spec

	// winCtl carries the live window controller from the adaptive
	// supervisor into per-segment engine runs (internal plumbing).
	winCtl *adapt.WindowController
	// prebuilt carries an already-built partition (and its cone count)
	// from the adaptive supervisor into per-segment engine runs, so
	// short probing segments do not pay the partitioner once per
	// segment. Engines treat the assignment as read-only (the sync
	// engine's dynamic balancer mutates a private copy), so sharing one
	// across segments is safe (internal plumbing).
	prebuilt      *partition.Partition
	prebuiltCones int
}

// SuperviseOptions configures the supervision layer.
type SuperviseOptions struct {
	// Watchdog, when non-zero, aborts an engine run (with a
	// machine-readable hang report) after this long without global
	// progress. Honored by the asynchronous engines (cmb, timewarp,
	// hybrid); the barrier-stepped engines cannot stall between barriers.
	Watchdog time.Duration
	// Retries is how many times a recoverable failure of the selected
	// engine is retried before degrading; 0 means fail over immediately.
	Retries int
	// Backoff is slept between attempts (doubled each retry).
	Backoff time.Duration
	// Fallback enables graceful degradation: after the retries are
	// exhausted the run falls back to the synchronous engine, then to the
	// sequential reference. All engines produce identical waveforms, so
	// degradation trades performance, never correctness.
	Fallback bool
}

// SupervisionReport records what the supervision layer did.
type SupervisionReport struct {
	// Recoveries counts failed attempts that were retried on the same
	// engine; Fallbacks counts degradations to a simpler engine.
	Recoveries uint64
	Fallbacks  uint64
	// FinalEngine is the engine that produced the result.
	FinalEngine Engine
	// Attempts holds the error of every failed attempt, in order.
	Attempts []string
}

// SimError is the structured simulation error; re-exported so callers can
// classify failures with errors.As without importing the engine internals.
type SimError = supervise.SimError

// Kind classifies a SimError.
type Kind = supervise.Kind

// The error kinds.
const (
	KindInternal   = supervise.KindInternal
	KindCausality  = supervise.KindCausality
	KindHang       = supervise.KindHang
	KindPanic      = supervise.KindPanic
	KindEventLimit = supervise.KindEventLimit
	KindShardLoss  = supervise.KindShardLoss
)

// RunInfo is the value-plane-independent part of a report.
type RunInfo struct {
	Engine  Engine
	EndTime circuit.Tick
	Stats   stats.RunStats
	// Modeled is the run's modeled execution time in model nanoseconds on
	// Processors modeled processors (see package stats for methodology).
	Modeled    float64
	Processors int
	// SeqWork caches the counters needed to compute a sequential baseline
	// time for speedups (populated for EngineSeq runs).
	SeqWork metrics.LPCounters
	// Metrics is the machine-readable run report (counters, histograms,
	// gauges, globals) from the run's metrics registry.
	Metrics *metrics.Report
	// Supervision, when the run was supervised, records recoveries and
	// fallbacks.
	Supervision *SupervisionReport
	// Adapt, when the run was adaptive, records every controller
	// decision and the final operating point.
	Adapt *AdaptReport
	// Lanes is a wide run's meaningful lane count, copied from the
	// stimulus; 0 for a scalar run.
	Lanes int
	// Vectors is the total number of stimulus vectors a wide run
	// consumed: lanes times distinct stimulus boundaries.
	Vectors uint64
	// VectorsPerSec is Vectors divided by the run's wall-clock time — the
	// headline wide-throughput figure.
	VectorsPerSec float64
}

// ReportOf is the engine-independent outcome of a run on value plane V
// (logic.Value, or the 64-lane logic.Word) with waveform type W.
type ReportOf[V comparable, W ~[]trace.SampleOf[V]] struct {
	RunInfo
	Values   []V
	Waveform W
}

// Report is the outcome of a scalar run.
type Report = ReportOf[logic.Value, trace.Waveform]

// WideReport is the outcome of a wide (64-lane) run; lane k of its
// waveform equals a scalar run of lane k's stimulus on the same engine.
type WideReport = ReportOf[logic.Word, trace.WideWaveform]

// SpeedupOver computes this run's modeled speedup over a sequential
// baseline report.
func (r *ReportOf[V, W]) SpeedupOver(baseline *ReportOf[V, W], m stats.CostModel) float64 {
	if m == (stats.CostModel{}) {
		m = stats.DefaultCostModel()
	}
	seqTime := stats.SequentialTime(m,
		baseline.SeqWork.Evaluations,
		baseline.SeqWork.EventsApplied,
		baseline.SeqWork.EventsScheduled)
	return stats.Speedup(seqTime, r.Modeled)
}

// cmbModes maps each conservative engine to its protocol variant.
var cmbModes = map[Engine]cmb.Mode{
	EngineCMB:       cmb.NullEager,
	EngineCMBDemand: cmb.NullDemand,
	EngineCMBDetect: cmb.DeadlockRecovery,
}

// plane is one value plane's stimulus and engine entry points (Run or
// RunWide of each engine): all that the engine dispatch in simulateOnce
// needs to know about the plane. lanes is 0 for the scalar plane.
type plane[S any, V comparable, W ~[]trace.SampleOf[V]] struct {
	stim       S
	lanes      int
	boundaries int
	seq        func(*circuit.Circuit, S, circuit.Tick, seq.Config) (*seq.ResultOf[V, W], error)
	oblivious  func(*circuit.Circuit, S, oblivious.Config) (*oblivious.ResultOf[V, W], error)
	sync       func(*circuit.Circuit, S, circuit.Tick, sync.Config) (*sync.ResultOf[V, W], error)
	cmb        func(*circuit.Circuit, S, circuit.Tick, cmb.Config) (*cmb.ResultOf[V, W], error)
	timewarp   func(*circuit.Circuit, S, circuit.Tick, timewarp.Config) (*timewarp.ResultOf[V, W], error)
	hybrid     func(*circuit.Circuit, S, circuit.Tick, hybrid.Config) (*hybrid.ResultOf[V, W], error)
}

// scalarPlane runs the engines' Run entry points on stim.
func scalarPlane(stim *vectors.Stimulus) plane[*vectors.Stimulus, logic.Value, trace.Waveform] {
	return plane[*vectors.Stimulus, logic.Value, trace.Waveform]{
		stim: stim, seq: seq.Run, oblivious: oblivious.Run, sync: sync.Run,
		cmb: cmb.Run, timewarp: timewarp.Run, hybrid: hybrid.Run,
	}
}

// widePlane runs the engines' RunWide entry points on stim; boundaries
// counts the distinct change times up to until.
func widePlane(stim *vectors.WideStimulus, until circuit.Tick) plane[*vectors.WideStimulus, logic.Word, trace.WideWaveform] {
	p := plane[*vectors.WideStimulus, logic.Word, trace.WideWaveform]{
		stim: stim, seq: seq.RunWide, oblivious: oblivious.RunWide, sync: sync.RunWide,
		cmb: cmb.RunWide, timewarp: timewarp.RunWide, hybrid: hybrid.RunWide,
	}
	seen := map[circuit.Tick]bool{}
	for _, ch := range stim.Changes {
		if ch.Time <= until {
			seen[ch.Time] = true
		}
	}
	p.lanes, p.boundaries = stim.Lanes, len(seen)
	return p
}

// label names an engine run on the plane in metrics and errors.
func (p *plane[S, V, W]) label(e Engine) string {
	if p.lanes > 0 {
		return e.String() + "-wide"
	}
	return e.String()
}

// simulate runs the engine once, or under the supervision layer when
// Options.Supervise is set.
func simulate[S any, V comparable, W ~[]trace.SampleOf[V]](c *circuit.Circuit, p plane[S, V, W], until circuit.Tick, opts Options) (*ReportOf[V, W], error) {
	if opts.Supervise != nil {
		return simulateSupervised(c, p, until, opts)
	}
	return simulateOnce(c, p, until, opts, 0)
}

// simulateOnce runs the selected engine exactly once. hangTimeout arms the
// asynchronous engines' progress watchdog; zero leaves it off. A panic on
// the calling goroutine (the serial engines run there) is recovered into a
// structured SimError, completing panic isolation for every engine.
func simulateOnce[S any, V comparable, W ~[]trace.SampleOf[V]](c *circuit.Circuit, p plane[S, V, W], until circuit.Tick, opts Options, hangTimeout time.Duration) (rep *ReportOf[V, W], err error) {
	label := p.label(opts.Engine)
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, supervise.FromPanic(label, -1, "run", 0, r)
		}
	}()
	if opts.Restore != nil && opts.Engine == EngineOblivious {
		return nil, fmt.Errorf("core: the oblivious engine is cycle-based and cannot resume from an event checkpoint")
	}
	sink := opts.Metrics
	if sink == nil {
		reg := metrics.NewRegistry(label)
		if opts.PProfLabels {
			reg.EnablePProf()
		}
		sink = reg
	}
	start := time.Now()

	part, coneCount, err := buildPartition(c, opts)
	if err != nil {
		return nil, err
	}
	sweep := opts.ConeSplit

	rep = &ReportOf[V, W]{RunInfo: RunInfo{Engine: opts.Engine, Processors: opts.LPs}}
	switch opts.Engine {
	case EngineSeq:
		res, err := p.seq(c, p.stim, until, seq.Config{
			System: opts.System, Queue: opts.Queue, Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Boot: opts.Restore,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.SeqWork = res.Counters
		rep.Stats.LPs = []metrics.LPCounters{res.Counters}
		rep.Stats.Wall = time.Since(start)
		rep.Processors = 1
		rep.Modeled = stats.SequentialTime(opts.Cost,
			res.Counters.Evaluations, res.Counters.EventsApplied, res.Counters.EventsScheduled)
	case EngineOblivious:
		res, err := p.oblivious(c, p.stim, oblivious.Config{
			System: opts.System, Workers: opts.LPs, Watch: opts.Watch, Cost: opts.Cost,
			Metrics: sink, Tracer: opts.Tracer,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform = res.Values, res.Waveform
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineSync:
		res, err := p.sync(c, p.stim, until, sync.Config{
			Partition: part, System: opts.System, Queue: opts.Queue,
			Watch: opts.Watch, Cost: opts.Cost, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Boot: opts.Restore,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineCMB, EngineCMBDemand, EngineCMBDetect:
		res, err := p.cmb(c, p.stim, until, cmb.Config{
			Partition: part, Mode: cmbModes[opts.Engine], System: opts.System, Queue: opts.Queue,
			Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Chaos: opts.Chaos,
			HangTimeout: hangTimeout, Boot: opts.Restore, Sweep: sweep,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineTimeWarp, EngineTimeWarpLazy:
		cancel := opts.Cancellation
		if opts.Engine == EngineTimeWarpLazy {
			cancel = timewarp.Lazy
		}
		res, err := p.timewarp(c, p.stim, until, timewarp.Config{
			Partition: part, Cancellation: cancel, StateSaving: opts.StateSaving,
			Window: opts.Window, System: opts.System, Queue: opts.Queue,
			Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Chaos: opts.Chaos,
			HangTimeout: hangTimeout, HistoryLimit: opts.HistoryLimit, Boot: opts.Restore,
			Sweep: sweep, Adapt: opts.winCtl,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineHybrid:
		res, err := p.hybrid(c, p.stim, until, hybrid.Config{
			Partition: part, IntraWorkers: opts.IntraWorkers,
			Cancellation: opts.Cancellation, StateSaving: opts.StateSaving,
			Window: opts.Window, System: opts.System, Cost: opts.Cost,
			Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Chaos: opts.Chaos,
			HangTimeout: hangTimeout, HistoryLimit: opts.HistoryLimit, Boot: opts.Restore,
			Sweep: sweep, Adapt: opts.winCtl,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.ModeledTime()
		rep.Processors = res.TotalProcessors()
	default:
		return nil, fmt.Errorf("core: unknown engine %v", opts.Engine)
	}
	if p.lanes > 0 {
		rep.Lanes = p.lanes
		rep.Vectors = uint64(p.lanes) * uint64(p.boundaries)
		if secs := time.Since(start).Seconds(); secs > 0 {
			rep.VectorsPerSec = float64(rep.Vectors) / secs
		}
		sink.SetGauge("lanes", float64(p.lanes))
		sink.SetGauge("vectors_per_sec", rep.VectorsPerSec)
	}
	if reg, ok := sink.(*metrics.Registry); ok {
		reg.SetLabel("engine", label)
		reg.SetLabel("lps", fmt.Sprint(rep.Processors))
		if p.lanes > 0 {
			reg.SetLabel("lanes", fmt.Sprint(p.lanes))
		}
		if opts.Engine.Parallel() {
			if opts.ConeSplit {
				reg.SetLabel("partition", partition.MethodConeSplit.String())
			} else {
				reg.SetLabel("partition", opts.Partition.String())
			}
		}
		if coneCount >= 0 {
			reg.SetGauge("cone_count", float64(coneCount))
		}
		rep.Metrics = reg.Report()
	}
	return rep, nil
}

// buildPartition derives the gate→LP assignment an engine run will use
// (nil for the serial engines). Shared between simulateOnce and the
// adaptive rebalancer, which needs the same assignment to translate
// per-LP utilization into per-gate weights.
func buildPartition(c *circuit.Circuit, opts Options) (*partition.Partition, int, error) {
	if !opts.Engine.Parallel() {
		return nil, -1, nil
	}
	if opts.prebuilt != nil {
		return opts.prebuilt, opts.prebuiltCones, nil
	}
	if opts.ConeSplit {
		lps := opts.LPs
		if lps < 1 {
			lps = 4
		}
		w := opts.Weights
		if w == nil {
			w = partition.WeightsUniform(c)
		}
		part, coneCount := partition.ConeSplit(c, lps, w)
		if err := part.Validate(c); err != nil {
			return nil, -1, err
		}
		return part, coneCount, nil
	}
	part, err := partition.New(opts.Partition, c, opts.LPs, partition.Options{
		Weights: opts.Weights,
		Seed:    opts.PartitionSeed,
	})
	if err != nil {
		return nil, -1, err
	}
	return part, -1, nil
}

// PreSimulate runs the paper's pre-simulation workload estimation: a
// sequential profiling run over a prefix of the stimulus, converted into
// partitioner weights.
func PreSimulate(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, sys logic.System) (partition.Weights, error) {
	res, err := seq.Run(c, stim, until, seq.Config{System: sys, Profile: true})
	if err != nil {
		return nil, err
	}
	return partition.WeightsFromProfile(res.EvalsByGate), nil
}

// Horizon re-exports the settling-margin heuristic for callers that only
// import core.
func Horizon(c *circuit.Circuit, stim *vectors.Stimulus) circuit.Tick {
	return seq.Horizon(c, stim)
}
