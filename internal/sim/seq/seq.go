// Package seq implements the sequential event-driven reference simulator.
//
// This is the classic single-queue gate-level simulator the paper takes as
// the baseline that parallel techniques accelerate. It also defines the
// semantics of the whole repository: every parallel engine is required to
// produce exactly the waveform this engine produces, and the cross-engine
// equivalence tests enforce that.
//
// Timestep semantics are two-phase: all net-value changes for the current
// time are applied first, then every gate whose fanin changed is evaluated
// exactly once against the settled values, and its output (if different
// from the last value projected for the net) is scheduled one gate-delay
// into the future. Because gate delays are >= 1 and evaluation is a pure
// function, the result is independent of the order in which same-time
// events are drawn from the queue — which is precisely what makes the
// partitioned, parallel executions of the other engines comparable.
//
// The engine doubles as the paper's "pre-simulation" workload estimator:
// with Profile enabled it counts evaluations per gate, and the partition
// package uses those counts as load weights.
package seq

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/supervise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Config parameterizes a sequential run.
type Config struct {
	// System is the logic value system used to initialize state.
	System logic.System
	// Queue selects the pending-event set implementation.
	Queue eventq.Impl
	// Watch lists the nets to record in the waveform; nil watches the
	// primary outputs.
	Watch []circuit.GateID
	// Profile enables per-gate evaluation counting (pre-simulation).
	Profile bool
	// CriticalPath enables critical-path analysis: alongside the normal
	// run, every event's completion time is computed on a hypothetical
	// machine with unlimited processors and zero communication cost, where
	// an evaluation may start as soon as the latest change of any net it
	// reads has completed. The resulting makespan is the data-dependency
	// lower bound on parallel execution time — the "ideal parallelism" of
	// the workload that no synchronization algorithm can beat.
	CriticalPath bool
	// Cost prices critical-path work; the zero value uses the default
	// model.
	Cost stats.CostModel
	// MaxEvents aborts runaway simulations (oscillators); 0 means no limit.
	MaxEvents uint64
	// Metrics receives the run's work counters; nil uses a private
	// registry (the counters still come back in Result.Counters).
	Metrics metrics.Sink
	// Tracer, when non-nil, records one evaluate span per timestep.
	Tracer *trace.Tracer

	// CheckpointEvery, with Checkpoint set, captures a consistent
	// snapshot at every multiple of this modeled-time interval: the
	// snapshot at boundary B is taken once the next pending event is
	// strictly later than B, so state reflects every event <= B and the
	// pending set is strictly later. Sequential execution is this
	// repository's definition of the trajectory (every engine must match
	// its waveform), which is what makes these snapshots consistent cuts
	// for any engine to restore.
	CheckpointEvery circuit.Tick
	// Checkpoint receives each captured snapshot; a non-nil error aborts
	// the run.
	Checkpoint func(*ckpt.State) error
	// Boot, when non-nil, resumes from a snapshot instead of the
	// stimulus: value planes are seeded, pending events requeued, and the
	// time-0 settling pass skipped. Result.Waveform then holds only the
	// samples recorded after the boundary (callers prepend Boot's
	// prefix).
	Boot *ckpt.State
}

// WideConfig parameterizes a wide (64-lane) run. It is Config: a wide
// run takes every field except Boot and Checkpoint, because a checkpoint
// (ckpt.State) holds scalar values.
type WideConfig = Config

// ResultOf is the outcome of a run on value plane V (logic.Value or the
// 64-lane logic.Word) with waveform type W.
type ResultOf[V comparable, W ~[]trace.SampleOf[V]] struct {
	// Values holds the final value of every net.
	Values []V
	// Waveform is the committed change history of the watched nets.
	Waveform W
	// EndTime is the last simulated time processed.
	EndTime circuit.Tick
	// CriticalPath is the data-dependency makespan in model nanoseconds
	// (0 unless Config.CriticalPath was set).
	CriticalPath float64
	// Counters is the run's work tally. Steps counts distinct simulated
	// times processed; EventsApplied counts committed net changes only
	// (same-value deliveries are filtered before counting).
	Counters metrics.LPCounters
	// EvalsByGate holds per-gate evaluation counts when profiling.
	EvalsByGate []uint64
}

// Result is the outcome of a scalar run.
type Result = ResultOf[logic.Value, trace.Waveform]

// WideResult is the outcome of a wide run; lane k of its waveform equals
// the scalar waveform of lane k's stimulus.
type WideResult = ResultOf[logic.Word, trace.WideWaveform]

// event is a scheduled net value change. compl carries the event's
// completion time on the ideal machine when critical-path analysis is on.
type event[V comparable] struct {
	gate  circuit.GateID
	value V
	compl float64
}

// Run simulates c under the stimulus until the given time (inclusive).
// Events scheduled beyond the horizon are discarded unprocessed.
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	if err := stim.Validate(c); err != nil {
		return nil, err
	}
	if cfg.System == 0 {
		cfg.System = logic.NineValued
	}
	var seed func(val, prevClk, projected []logic.Value) []vectors.Change
	if cfg.Boot != nil {
		if err := cfg.Boot.Check(c, cfg.System); err != nil {
			return nil, err
		}
		seed = cfg.Boot.Seed
	}
	var capture func(circuit.Tick, snapshot[logic.Value]) error
	if cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil {
		fp := ckpt.Fingerprint(c)
		capture = func(b circuit.Tick, s snapshot[logic.Value]) error {
			st := &ckpt.State{
				Version: ckpt.Version, Fingerprint: fp,
				Time: uint64(b), Until: uint64(until), System: uint8(cfg.System),
				EndTime:   uint64(s.endTime),
				Vals:      s.val,
				PrevClk:   s.prevClk,
				Projected: s.projected,
				Waveform:  ckpt.FromWaveform(s.waveform),
				Events:    make([]ckpt.Event, len(s.pending)),
			}
			for i, ev := range s.pending {
				st.Events[i] = ckpt.Event{Time: uint64(ev.Time), Gate: ev.Input, Value: ev.Value}
			}
			if cfg.Boot != nil {
				st.Waveform = append(append([]ckpt.Sample(nil), cfg.Boot.Waveform...), st.Waveform...)
				st.EndTime = max(st.EndTime, cfg.Boot.EndTime)
			}
			return cfg.Checkpoint(st)
		}
	}
	return run[logic.Value, trace.Waveform](c, until, cfg, "seq", circuit.ScalarPlane,
		stim.Project(cfg.System), seed, capture)
}

// RunWide simulates all lanes of the wide stimulus in one pass, evaluating
// 64 vectors per gate operation. The event loop is Run's: an event fires
// when the word differs from the net's current word in any lane. Because
// the fired evaluation times are a superset of every lane's scalar
// evaluation times and gate evaluation is idempotent under unchanged
// inputs, each lane of the resulting waveform is exactly the scalar
// reference waveform for that lane's stimulus.
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, cfg WideConfig) (*WideResult, error) {
	if err := stim.Validate(c); err != nil {
		return nil, err
	}
	if cfg.Boot != nil || cfg.Checkpoint != nil {
		return nil, fmt.Errorf("seq: wide runs cannot boot from or write checkpoints: ckpt.State holds scalar values")
	}
	if cfg.System == 0 {
		cfg.System = logic.FourValued
	}
	if err := logic.CheckWide(cfg.System); err != nil {
		return nil, err
	}
	return run[logic.Word, trace.WideWaveform](c, until, cfg, "seq-wide", circuit.WidePlane, stim.Changes, nil, nil)
}

// snapshot is the engine state at a checkpoint boundary: copies of the
// three value planes, the waveform recorded so far, and the pending
// events.
type snapshot[V comparable] struct {
	endTime                 circuit.Tick
	val, prevClk, projected []V
	waveform                []trace.SampleOf[V]
	pending                 []vectors.ChangeOf[V]
}

// run is the sequential event loop on value plane V. It starts from the
// pre-projected stimulus changes, or, when seed is non-nil, from the
// planes and pending events seed installs (a checkpoint boot, which skips
// the time-zero settling pass). capture, when non-nil, receives a
// snapshot at every Config.CheckpointEvery boundary.
func run[V comparable, W ~[]trace.SampleOf[V]](c *circuit.Circuit, until circuit.Tick, cfg Config, engine string,
	plane circuit.Plane[V], stim []vectors.ChangeOf[V],
	seed func(val, prevClk, projected []V) []vectors.ChangeOf[V],
	capture func(circuit.Tick, snapshot[V]) error) (*ResultOf[V, W], error) {
	if err := c.CheckEventDriven(); err != nil {
		return nil, err
	}
	if cfg.Cost == (stats.CostModel{}) {
		cfg.Cost = stats.DefaultCostModel()
	}
	sink := cfg.Metrics
	if sink == nil {
		sink = metrics.NewRegistry(engine)
	}
	blk := sink.LP(0)
	shard := cfg.Tracer.Shard("lp 0")

	val, prevClk := plane.InitState(c, cfg.System)
	projected := make([]V, len(val))
	copy(projected, val)

	watched := cfg.Watch
	if watched == nil {
		watched = c.Outputs
	}
	isWatched := make([]bool, len(c.Gates))
	for _, g := range watched {
		isWatched[g] = true
	}

	q := eventq.New[event[V]](cfg.Queue)
	if seed != nil {
		for _, ev := range seed(val, prevClk, projected) {
			q.Push(uint64(ev.Time), event[V]{gate: ev.Input, value: ev.Value})
		}
	} else {
		for _, ch := range stim {
			if ch.Time > until {
				continue
			}
			q.Push(uint64(ch.Time), event[V]{gate: ch.Input, value: ch.Value})
			projected[ch.Input] = ch.Value
		}
	}

	res := &ResultOf[V, W]{}
	if cfg.Profile {
		res.EvalsByGate = make([]uint64, len(c.Gates))
	}
	var rec trace.RecorderOf[V]

	// Critical-path state: lastCompl[g] is the ideal-machine completion
	// time of net g's most recent change.
	var lastCompl []float64
	if cfg.CriticalPath {
		lastCompl = make([]float64, len(c.Gates))
	}
	// evalStep is the ideal cost of one apply-evaluate-schedule unit.
	evalStep := cfg.Cost.EvalCost + 2*cfg.Cost.EventCost

	// dirty tracking: stamp[g] == epoch marks g already queued this step.
	stamp := make([]uint64, len(c.Gates))
	var epoch uint64
	var dirty []circuit.GateID
	var scratch []V
	var endTime circuit.Tick
	var totalEvents uint64

	// step processes one timestep: apply all queued changes at time t, then
	// evaluate each affected gate once. When initial is set every non-source
	// gate is evaluated regardless of input changes — the time-zero settling
	// pass that establishes correct steady state from the initial values.
	step := func(t circuit.Tick, initial bool) error {
		epoch++
		blk.Steps++
		endTime = t
		dirty = dirty[:0]
		begin := shard.Now()
		applied := uint64(0)

		// Phase 1: apply all value changes for time t.
		for {
			pt, ok := q.PeekTime()
			if !ok || circuit.Tick(pt) != t {
				break
			}
			_, ev, _ := q.PopMin()
			totalEvents++
			if cfg.MaxEvents > 0 && totalEvents > cfg.MaxEvents {
				return &supervise.SimError{
					Engine: engine, LP: 0, Phase: "evaluate", ModeledTime: t,
					Kind:  supervise.KindEventLimit,
					Cause: fmt.Errorf("event limit %d exceeded at time %d (oscillation?)", cfg.MaxEvents, t),
				}
			}
			if val[ev.gate] == ev.value {
				continue
			}
			val[ev.gate] = ev.value
			if lastCompl != nil {
				lastCompl[ev.gate] = ev.compl
			}
			blk.EventsApplied++
			applied++
			if isWatched[ev.gate] {
				rec.Record(t, ev.gate, ev.value)
			}
			for _, out := range c.Fanout[ev.gate] {
				if stamp[out] != epoch {
					stamp[out] = epoch
					dirty = append(dirty, out)
				}
			}
		}
		if initial {
			dirty = dirty[:0]
			for id := range c.Gates {
				if !c.Gates[id].Kind.Source() {
					dirty = append(dirty, circuit.GateID(id))
				}
			}
		}

		// Phase 2: evaluate affected gates against the settled values.
		for _, g := range dirty {
			var out, clkSample V
			out, clkSample, scratch = plane.EvalGate(c, g, val, prevClk, scratch)
			prevClk[g] = clkSample
			blk.Evaluations++
			if cfg.Profile {
				res.EvalsByGate[g]++
			}
			var compl float64
			if lastCompl != nil {
				// The evaluation may start once every net it reads (and its
				// own output, whose previous value it extends) is final.
				dep := lastCompl[g]
				for _, f := range c.Gates[g].Fanin {
					if lastCompl[f] > dep {
						dep = lastCompl[f]
					}
				}
				compl = dep + evalStep
				if compl > res.CriticalPath {
					res.CriticalPath = compl
				}
			}
			if out == projected[g] {
				continue
			}
			projected[g] = out
			q.Push(uint64(t+c.Gates[g].Delay), event[V]{gate: g, value: out, compl: compl})
			blk.EventsScheduled++
		}
		blk.Hist(metrics.HistStepEvents).Observe(applied)
		shard.Span(trace.PhaseEvaluate, begin, t)
		return nil
	}

	// Checkpoint capture: nextCk is the next boundary to snapshot; it is
	// captured the moment the next pending event is strictly later.
	var nextCk circuit.Tick
	if cfg.CheckpointEvery > 0 && capture != nil {
		nextCk = cfg.CheckpointEvery
		if cfg.Boot != nil {
			nextCk = (circuit.Tick(cfg.Boot.Time)/cfg.CheckpointEvery + 1) * cfg.CheckpointEvery
		}
	}
	snap := func(b circuit.Tick) error {
		s := snapshot[V]{
			endTime:   endTime,
			val:       append([]V(nil), val...),
			prevClk:   append([]V(nil), prevClk...),
			projected: append([]V(nil), projected...),
			waveform:  trace.MergeOf(&rec),
			pending:   make([]vectors.ChangeOf[V], 0, q.Len()),
		}
		// Snapshot the pending set by draining and requeuing; ResetFloor
		// lets the ascending repush start below the drain's last pop.
		var compls []float64
		for {
			t64, ev, ok := q.PopMin()
			if !ok {
				break
			}
			s.pending = append(s.pending, vectors.ChangeOf[V]{Time: circuit.Tick(t64), Input: ev.gate, Value: ev.value})
			compls = append(compls, ev.compl)
		}
		q.ResetFloor()
		for i, ev := range s.pending {
			q.Push(uint64(ev.Time), event[V]{gate: ev.Input, value: ev.Value, compl: compls[i]})
		}
		return capture(b, s)
	}

	var runErr error
	metrics.Do(sink, engine, 0, "run", func() {
		if seed == nil {
			if runErr = step(0, true); runErr != nil {
				return
			}
		}
		for q.Len() > 0 {
			t64, _ := q.PeekTime()
			t := circuit.Tick(t64)
			if t > until {
				break
			}
			for nextCk > 0 && t > nextCk && nextCk <= until {
				if runErr = snap(nextCk); runErr != nil {
					return
				}
				nextCk += cfg.CheckpointEvery
			}
			if runErr = step(t, false); runErr != nil {
				return
			}
			if err := q.Err(); err != nil {
				runErr = &supervise.SimError{
					Engine: engine, LP: 0, Phase: "eventq", ModeledTime: t,
					Kind: supervise.KindCausality, Cause: err,
				}
				return
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}

	res.Values = val
	res.Waveform = W(trace.MergeOf(&rec))
	res.EndTime = endTime
	res.Counters = blk.LPCounters
	return res, nil
}

// Horizon suggests a simulation end time for a stimulus: the stimulus end
// plus a settling margin of the circuit's combinational depth times its
// maximum gate delay (enough for the last vector to propagate to the
// outputs through any path, plus slack for sequential feedback).
func Horizon(c *circuit.Circuit, stim *vectors.Stimulus) circuit.Tick {
	return horizon(c, stim.End)
}

// WideHorizon is Horizon for a wide stimulus.
func WideHorizon(c *circuit.Circuit, stim *vectors.WideStimulus) circuit.Tick {
	return horizon(c, stim.End)
}

func horizon(c *circuit.Circuit, end circuit.Tick) circuit.Tick {
	depth := circuit.Tick(1)
	if levels, err := c.Levelize(); err == nil {
		depth = circuit.Tick(len(levels) + 2)
	}
	max := c.MaxDelay()
	if max == 0 {
		max = 1
	}
	return end + 4*depth*max
}
