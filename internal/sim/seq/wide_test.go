package seq

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// laneInitial returns the per-lane dedup baseline for wide waveform
// extraction: the projected time-zero value of each net, identical across
// lanes and identical to the scalar engine's initial committed value.
func laneInitial(c *circuit.Circuit, sys logic.System) func(circuit.GateID) logic.Value {
	return func(g circuit.GateID) logic.Value {
		return sys.Project(circuit.InitialValue(c.Gates[g].Kind))
	}
}

// TestRunWideLaneExact is the foundation check for the whole wide path:
// every lane of a wide run must reproduce, sample for sample, the scalar
// reference run of that lane's stimulus.
func TestRunWideLaneExact(t *testing.T) {
	cases := []struct {
		name string
		sys  logic.System
		seq  bool
	}{
		{"comb-2v", logic.TwoValued, false},
		{"comb-4v", logic.FourValued, false},
		{"seq-2v", logic.TwoValued, true},
		{"seq-4v", logic.FourValued, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var (
				c   *circuit.Circuit
				err error
			)
			if tc.seq {
				c, err = gen.RandomSeq(gen.RandomConfig{Gates: 120, Inputs: 8, Outputs: 6, Locality: 0.5, Seed: 9, FFRatio: 0.2})
			} else {
				c, err = gen.RandomDAG(gen.RandomConfig{Gates: 120, Inputs: 8, Outputs: 6, Locality: 0.5, Seed: 9})
			}
			if err != nil {
				t.Fatal(err)
			}
			const lanes = 64
			var (
				ws    *vectors.WideStimulus
				stims []*vectors.Stimulus
			)
			if tc.seq {
				ws, stims, err = vectors.ClockedBatch(c, vectors.ClockedConfig{Clock: "clk", Cycles: 6, HalfPeriod: 8, Activity: 0.5, Seed: 21}, lanes, tc.sys)
			} else {
				ws, stims, err = vectors.RandomBatch(c, vectors.RandomConfig{Vectors: 6, Period: 16, Activity: 0.6, Seed: 21}, lanes, tc.sys)
			}
			if err != nil {
				t.Fatal(err)
			}
			until := WideHorizon(c, ws)
			wres, err := RunWide(c, ws, until, WideConfig{System: tc.sys})
			if err != nil {
				t.Fatal(err)
			}
			init := laneInitial(c, tc.sys)
			for k := 0; k < lanes; k++ {
				sres, err := Run(c, stims[k], until, Config{System: tc.sys})
				if err != nil {
					t.Fatalf("lane %d scalar: %v", k, err)
				}
				got := wres.Waveform.Lane(k, init)
				if d := trace.Diff(sres.Waveform, got, 6); d != "" {
					t.Fatalf("lane %d waveform mismatch:\n%s", k, d)
				}
				for _, out := range c.Outputs {
					if g, w := wres.Values[out].Get(k), sres.Values[out].ToX01Z(); g != w {
						t.Fatalf("lane %d final %d: wide %v, scalar %v", k, out, g, w)
					}
				}
			}
		})
	}
}

// TestRunWideRejectsNineValued pins the wide plane's system constraint.
func TestRunWideRejectsNineValued(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 20, Inputs: 4, Outputs: 2, Locality: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := vectors.RandomBatch(c, vectors.RandomConfig{Vectors: 2, Period: 10, Activity: 0.5, Seed: 1}, 4, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWide(c, ws, 100, WideConfig{System: logic.NineValued}); err == nil {
		t.Fatal("nine-valued wide run unexpectedly succeeded")
	}
}

// TestRunWideValidatesStimulus pins the wide stimulus checks scalar Run
// already makes: a change that drives an internal gate, or a gate outside
// the circuit, is an error, not a silent success or an index panic.
func TestRunWideValidatesStimulus(t *testing.T) {
	c, err := gen.RippleAdder(8, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	internal := c.Outputs[0]
	cases := []struct {
		name string
		ch   vectors.WideChange
	}{
		{"internal-gate", vectors.WideChange{Time: 0, Input: internal, Value: logic.Splat(logic.One)}},
		{"out-of-range", vectors.WideChange{Time: 0, Input: circuit.GateID(len(c.Gates) + 5), Value: logic.Splat(logic.One)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := &vectors.WideStimulus{Changes: []vectors.WideChange{tc.ch}, End: 10, Lanes: 4}
			if _, err := RunWide(c, ws, 100, WideConfig{System: logic.TwoValued}); err == nil {
				t.Fatal("invalid wide stimulus accepted")
			}
		})
	}
}
