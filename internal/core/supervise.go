package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Simulate runs the selected engine on the circuit and stimulus.
//
// With Options.Supervise set, the run is supervised: the asynchronous
// engines execute under a progress watchdog, recoverable failures (panics,
// hangs, causality violations) are retried with backoff, and — when
// Fallback is enabled — the run degrades to the synchronous engine and
// finally the sequential reference. Because every engine reproduces the
// same trajectory, degradation changes performance only; the waveform is
// identical. With Options.CheckpointEvery/CheckpointDir set, consistent
// snapshots are written during the run; Options.Restore resumes from one.
func Simulate(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, opts Options) (*Report, error) {
	opts = withDefaults(opts, logic.NineValued)
	if opts.CheckpointEvery > 0 && opts.CheckpointDir != "" {
		if err := writeCheckpoints(c, stim, until, opts); err != nil {
			return nil, err
		}
	}
	if opts.Adapt != nil {
		// The adaptive supervisor owns segmentation, restore splicing,
		// and (when configured) per-segment supervision.
		return simulateAdaptive(c, stim, until, opts)
	}
	rep, err := simulate(c, scalarPlane(stim), until, opts)
	if err != nil {
		return nil, err
	}
	if opts.Restore != nil {
		// Engines resumed from a checkpoint report only the suffix; splice
		// the checkpointed prefix back on so the caller sees the waveform
		// of an uninterrupted run.
		rep.Waveform = append(opts.Restore.Prefix(), rep.Waveform...)
		if end := circuit.Tick(opts.Restore.EndTime); end > rep.EndTime {
			rep.EndTime = end
		}
	}
	return rep, nil
}

// SimulateWide runs the selected engine on all lanes of the wide stimulus
// at once — 64 vectors per gate operation — through the same dispatch,
// partitioning, supervision and fault injection as Simulate. Per lane,
// the committed waveform is bit-identical to a scalar run of that lane's
// stimulus on the same engine.
//
// The logic system must be two- or four-valued (default four-valued):
// nine-valued signals do not fit two bits per lane. Checkpoint writes,
// restore, and adaptive control are refused because a checkpoint
// (ckpt.State) holds scalar values.
func SimulateWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, opts Options) (*WideReport, error) {
	switch {
	case opts.Restore != nil:
		return nil, fmt.Errorf("core: wide runs cannot restore: a checkpoint holds scalar values")
	case opts.CheckpointEvery > 0:
		return nil, fmt.Errorf("core: wide runs cannot write checkpoints: a checkpoint holds scalar values")
	case opts.Adapt != nil:
		return nil, fmt.Errorf("core: wide runs do not support adaptive control: it migrates segments through scalar checkpoints")
	}
	opts = withDefaults(opts, logic.FourValued)
	if err := logic.CheckWide(opts.System); err != nil {
		return nil, err
	}
	return simulate(c, widePlane(stim, until), until, opts)
}

// withDefaults fills the zero-valued options shared by both value planes.
func withDefaults(opts Options, sys logic.System) Options {
	if opts.LPs <= 0 {
		opts.LPs = 4
	}
	if opts.System == 0 {
		opts.System = sys
	}
	if opts.Cost == (stats.CostModel{}) {
		opts.Cost = stats.DefaultCostModel()
	}
	if opts.IntraWorkers <= 0 {
		opts.IntraWorkers = 2
	}
	return opts
}

// WideHorizon re-exports the wide settling-margin heuristic.
func WideHorizon(c *circuit.Circuit, stim *vectors.WideStimulus) circuit.Tick {
	return seq.WideHorizon(c, stim)
}

// recoverable reports whether the supervision layer may retry or degrade
// after err. Structured engine failures are recoverable except the event
// limit, which is a property of the circuit and stimulus — every engine
// would hit it, so retrying only burns time. Unstructured errors are
// configuration or validation problems and are returned as-is.
func recoverable(err error) bool {
	var se *SimError
	if !errors.As(err, &se) {
		return false
	}
	return se.Kind != KindEventLimit
}

// simulateSupervised drives the retry/backoff/fallback chain.
func simulateSupervised[S any, V comparable, W ~[]trace.SampleOf[V]](c *circuit.Circuit, p plane[S, V, W], until circuit.Tick, opts Options) (*ReportOf[V, W], error) {
	sup := *opts.Supervise
	chain := []Engine{opts.Engine}
	if sup.Fallback {
		if opts.Engine != EngineSync && opts.Engine != EngineSeq && opts.Engine != EngineOblivious {
			chain = append(chain, EngineSync)
		}
		if opts.Engine != EngineSeq && opts.Engine != EngineOblivious {
			chain = append(chain, EngineSeq)
		}
	}
	srep := &SupervisionReport{}
	backoff := sup.Backoff
	var lastErr error
	for ci, eng := range chain {
		tries := 1
		if ci == 0 {
			tries += sup.Retries
		}
		for a := 0; a < tries; a++ {
			if lastErr != nil {
				// Re-arm transient chaos faults between attempts so the
				// harness can model faults that persist (hangs re-arm) or
				// do not (panics stay fired).
				opts.Chaos.Rearm()
				if backoff > 0 {
					time.Sleep(backoff)
					backoff *= 2
				}
			}
			o := opts
			o.Engine = eng
			rep, err := simulateOnce(c, p, until, o, sup.Watchdog)
			if err == nil {
				srep.FinalEngine = eng
				rep.Supervision = srep
				if rep.Metrics != nil {
					if rep.Metrics.Gauges == nil {
						rep.Metrics.Gauges = map[string]float64{}
					}
					rep.Metrics.Gauges["supervise_recoveries"] = float64(srep.Recoveries)
					rep.Metrics.Gauges["supervise_fallbacks"] = float64(srep.Fallbacks)
				}
				return rep, nil
			}
			lastErr = err
			srep.Attempts = append(srep.Attempts, fmt.Sprintf("%s: %v", eng, err))
			if !recoverable(err) {
				return nil, err
			}
			if a+1 < tries {
				srep.Recoveries++
			}
		}
		if ci+1 < len(chain) {
			srep.Fallbacks++
		}
	}
	return nil, lastErr
}

// writeCheckpoints runs the sequential shadow that produces the run's
// checkpoint stream. The shadow is legitimate as a checkpoint source for
// every engine because all engines reproduce the sequential trajectory
// exactly (the differential harness enforces this), so the sequential
// state at a boundary is a consistent global cut of any engine's run.
func writeCheckpoints(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, opts Options) error {
	if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
		return err
	}
	_, err := seq.Run(c, stim, until, seq.Config{
		System: opts.System, Queue: opts.Queue, Watch: opts.Watch,
		MaxEvents:       opts.MaxEvents,
		Boot:            opts.Restore,
		CheckpointEvery: opts.CheckpointEvery,
		Checkpoint: func(st *ckpt.State) error {
			return ckpt.WriteFile(filepath.Join(opts.CheckpointDir, fmt.Sprintf("ckpt-%08d.json", st.Time)), st)
		},
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint shadow: %w", err)
	}
	return nil
}
