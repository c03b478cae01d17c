package chaos

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/vectors"
)

// shortSeeds trims the sweep under -short (race CI runs every test with
// -short; the full sweep belongs to the nightly job).
func sweepSeeds(t *testing.T, full []uint64) []uint64 {
	t.Helper()
	if testing.Short() && len(full) > 2 {
		return full[:2]
	}
	return full
}

// TestExploreDeterministic is the reproducibility contract: two sweeps of
// the same configuration render byte-identically (same plans injected,
// same verdicts), and the correct engines pass under every chaos
// schedule.
func TestExploreDeterministic(t *testing.T) {
	cfg := Config{
		Seeds:     sweepSeeds(t, []uint64{1, 2, 3}),
		Workloads: []string{"ripple8", "counter5"},
	}
	first, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := Render(first), Render(second)
	if ra != rb {
		t.Errorf("two identical sweeps rendered differently:\n--- first\n%s--- second\n%s", ra, rb)
	}
	for i := range first {
		if first[i].Failed() {
			t.Errorf("%s/%v/seed=%d failed under chaos:\n%s\nrepro: %s",
				first[i].Workload, first[i].Engine, first[i].Seed, first[i].Failure, first[i].Repro)
		}
	}
}

// TestExploreAllEnginesClean sweeps every asynchronous engine over the
// full workload corpus: a correct engine must reproduce the sequential
// waveform and satisfy the counter invariants under every fault plan.
func TestExploreAllEnginesClean(t *testing.T) {
	outs, err := Explore(Config{
		Seeds: sweepSeeds(t, []uint64{10, 11, 12, 13}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		o := &outs[i]
		if o.Failed() {
			t.Errorf("%s/%v/seed=%d failed under chaos:\n%s\nrepro: %s",
				o.Workload, o.Engine, o.Seed, o.Failure, o.Repro)
		}
	}
}

// TestBrokenLookaheadCaughtAndShrunk is the harness self-test demanded by
// the issue: an engine whose null-message lookahead is off by one (the
// hook's sabotage knob) must be caught, shrunk to a <= 10-fault repro,
// and the repro must replay to the same failure.
func TestBrokenLookaheadCaughtAndShrunk(t *testing.T) {
	cfg := Config{
		Seeds:         []uint64{5},
		Engines:       []core.Engine{core.EngineCMB},
		Workloads:     []string{"ripple8"},
		LookaheadBias: 1,
	}
	outs, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	o := &outs[0]
	if !o.Failed() {
		t.Fatal("biased-lookahead engine was not caught")
	}
	if !strings.Contains(o.Failure, "bound") && !strings.Contains(o.Failure, "mismatch") {
		t.Errorf("failure does not look like a promise violation: %s", o.Failure)
	}
	if o.Keep == nil {
		t.Fatal("failure was not shrunk")
	}
	if len(o.Keep) > 10 {
		t.Errorf("minimal repro has %d faults, want <= 10", len(o.Keep))
	}
	if o.MinFailure == "" {
		t.Error("no failure recorded for the minimal subset")
	}
	if o.Repro == "" {
		t.Fatal("no repro command emitted")
	}

	// The repro line round-trips: parse the spec back out and replay it.
	start := strings.Index(o.Repro, "-replay '")
	if start < 0 {
		t.Fatalf("repro line has no -replay spec: %s", o.Repro)
	}
	specText := o.Repro[start+len("-replay '"):]
	specText = strings.TrimSuffix(specText, "'")
	spec, err := ParseReplay(specText)
	if err != nil {
		t.Fatalf("repro spec does not parse: %v", err)
	}
	replayed, err := Replay(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Failed() {
		t.Errorf("replay of shrunk repro passed; original failure: %s", o.MinFailure)
	}
}

// TestBrokenLookaheadCaughtWide: the sabotage knob reaches the wide
// conservative engine through the same chaos transport, and its promise
// checker catches the broken bounds on whole-word messages. The sweep's
// counter checks compare against scalar sequential work, which a wide
// engine with its block sweep armed does not reproduce, so the wide case
// checks the transport verdict directly.
func TestBrokenLookaheadCaughtWide(t *testing.T) {
	w, err := WorkloadByName("ripple8")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := vectors.Splat(w.C, w.Stim, logic.Lanes, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	hook := inject.NewHook(5, inject.NewPlan(5, 4, 16))
	hook.LookaheadBias = 1
	_, err = core.SimulateWide(w.C, ws, core.WideHorizon(w.C, ws), core.Options{
		Engine: core.EngineCMB, LPs: 4, Partition: partition.MethodFM, PartitionSeed: 11,
		System: logic.TwoValued, Chaos: hook,
	})
	v := hook.Violations()
	if len(v) == 0 {
		t.Fatalf("biased-lookahead wide engine was not caught (engine error: %v)", err)
	}
	if !strings.Contains(v[0], "bound") {
		t.Errorf("violation does not look like a broken promise: %s", v[0])
	}
}

// TestReplaySpecRoundTrip checks the spec text format.
func TestReplaySpecRoundTrip(t *testing.T) {
	spec := ReplaySpec{
		Workload: "dag150", Engine: core.EngineTimeWarpLazy, Seed: 77,
		LPs: 6, Faults: 9, Bias: 2, Keep: []int{0, 3, 8},
	}
	parsed, err := ParseReplay(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != spec.String() {
		t.Errorf("round trip changed spec: %q -> %q", spec.String(), parsed.String())
	}
	// Empty keep (fails with zero faults) round-trips distinctly from
	// nil keep (full plan).
	spec.Keep = []int{}
	parsed, err = ParseReplay(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Keep == nil || len(parsed.Keep) != 0 {
		t.Errorf("empty keep parsed as %v", parsed.Keep)
	}
	spec.Keep = nil
	parsed, err = ParseReplay(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Keep != nil {
		t.Errorf("nil keep parsed as %v", parsed.Keep)
	}
}

// TestShrinkMinimizes exercises ddmin against a synthetic predicate: the
// plan fails iff the subset retains both of two specific faults.
func TestShrinkMinimizes(t *testing.T) {
	plan := inject.NewPlan(1, 4, 16)
	culpritA, culpritB := plan[3].String(), plan[11].String()
	run := func(sub inject.Plan) string {
		var a, b bool
		for _, f := range sub {
			switch f.String() {
			case culpritA:
				a = true
			case culpritB:
				b = true
			}
		}
		if a && b {
			return "boom"
		}
		return ""
	}
	keep, f := Shrink(plan, "boom", run, 200)
	if f != "boom" {
		t.Fatalf("shrink lost the failure: %q", f)
	}
	want := map[int]bool{3: true, 11: true}
	if len(keep) != 2 || !want[keep[0]] || !want[keep[1]] {
		t.Errorf("shrunk to %v, want exactly [3 11]", keep)
	}
}

// TestShrinkEmptyProbe: an engine that fails with no faults at all shrinks
// straight to the empty subset.
func TestShrinkEmptyProbe(t *testing.T) {
	plan := inject.NewPlan(2, 4, 16)
	run := func(sub inject.Plan) string { return "always broken" }
	keep, f := Shrink(plan, "always broken", run, 200)
	if len(keep) != 0 || keep == nil {
		t.Errorf("keep = %v, want empty non-nil slice", keep)
	}
	if f != "always broken" {
		t.Errorf("failure = %q", f)
	}
}
