package experiments

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/stats"
)

// E16CriticalPath measures the data-dependency critical path of each
// workload — the makespan on an idealized machine with unlimited
// processors and free communication — and compares the real engines
// against that bound. This is the critical-path analysis technique of the
// parallel-simulation literature: it separates "the algorithm is wasting
// parallelism" from "the workload has no parallelism to find", the
// distinction behind the paper's observation that performance varies
// dramatically from one circuit to the next (circuit structure is one of
// the five factors).
func E16CriticalPath(s Scale) (*Table, error) {
	sizes := []int{1000, 5000}
	vecs := 25
	if s == Full {
		sizes = []int{1000, 5000, 20000}
		vecs = 50
	}
	t := &Table{
		ID:     "E16",
		Title:  "achieved speedup vs the data-dependency bound (ideal parallelism)",
		Claim:  "with all other factors equal, parallel simulator performance can vary dramatically from one circuit to the next [circuit structure is a primary factor]",
		Header: []string{"circuit", "ideal", "tw-8", "tw-32", "eff-8", "eff-32"},
	}
	m := defaultModel()
	row := func(name string, w *workload) error {
		ref, err := seq.Run(w.c, w.stim, w.until, seq.Config{
			System: logic.TwoValued, CriticalPath: true,
		})
		if err != nil {
			return err
		}
		seqTime := stats.SequentialTime(m,
			ref.Counters.Evaluations, ref.Counters.EventsApplied, ref.Counters.EventsScheduled)
		ideal := stats.Speedup(seqTime, ref.CriticalPath)
		base := &core.Report{RunInfo: core.RunInfo{SeqWork: ref.Counters}}
		sp8, _, err := speedupOf(w, base, core.Options{
			Engine: core.EngineTimeWarp, LPs: 8, Partition: partition.MethodFM, PartitionSeed: 3,
		})
		if err != nil {
			return err
		}
		sp32, _, err := speedupOf(w, base, core.Options{
			Engine: core.EngineTimeWarp, LPs: 32, Partition: partition.MethodFM, PartitionSeed: 3,
		})
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name, f2(ideal), f2(sp8), f2(sp32), f2(sp8 / ideal), f2(sp32 / ideal),
		})
		return nil
	}
	for i, n := range sizes {
		c, err := sizedCircuit(n, int64(60+i), gen.Unit)
		if err != nil {
			return nil, err
		}
		w, err := randomWorkload(c, vecs, 40, 0.5, int64(61+i))
		if err != nil {
			return nil, err
		}
		if err := row(d(n)+"-dag", w); err != nil {
			return nil, err
		}
	}
	// A deep serial structure for contrast: the ripple-carry adder's carry
	// chain leaves almost nothing for any parallel algorithm to find.
	bits := 64
	if s == Full {
		bits = 256
	}
	rc, err := gen.RippleAdder(bits, gen.Unit)
	if err != nil {
		return nil, err
	}
	w, err := randomWorkload(rc, vecs, circuit.Tick(4*bits), 0.5, 71)
	if err != nil {
		return nil, err
	}
	if err := row("ripple-adder", w); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"ideal = modeled sequential time / critical-path makespan (unlimited processors, free communication)",
		"eff-N = achieved Time Warp speedup at N LPs divided by the ideal bound")
	return t, nil
}
