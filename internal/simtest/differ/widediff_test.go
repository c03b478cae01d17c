package differ

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestWideLockstepCrossEngine is the wide-plane conformance suite: every
// trial generates a fresh circuit, a batch of independent per-lane scalar
// stimuli, and a wide engine configuration, then checks that every lane of
// the wide run reproduces — sample for sample — the scalar sequential
// reference of that lane's stimulus. Failures shrink to a minimal lane set
// and carry a self-contained repro.
func TestWideLockstepCrossEngine(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	cfg := WideDiffConfig{Seed: 64}
	for i := 0; i < trials; i++ {
		tr, err := GenWideTrial(cfg, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		t.Run(fmt.Sprintf("trial-%02d-%s-%s", i, tr.Opts.Engine, tr.Opts.Partition), func(t *testing.T) {
			t.Parallel()
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWideLockstepPerEngineCoverage pins one deterministic batch per wide
// engine, so a regression in a single engine's wide path is reported by
// name even if the randomized mix under-samples it. The sequential and
// oblivious wide paths, which the lockstep trials use differently or not
// at all, get explicit entries. One more arm runs the sync engine with
// dynamic load balancing on.
func TestWideLockstepPerEngineCoverage(t *testing.T) {
	per := 4
	if testing.Short() {
		per = 2
	}
	type arm struct {
		name      string
		eng       core.Engine
		rebalance uint64
	}
	var arms []arm
	for _, eng := range WideDiffEngines {
		arms = append(arms, arm{eng.String(), eng, 0})
	}
	arms = append(arms, arm{"sync-rebalance", core.EngineSync, 3})
	for _, a := range arms {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			cfg := WideDiffConfig{Seed: 400 + int64(a.eng), Engines: []core.Engine{a.eng}}
			for i := 0; i < per; i++ {
				tr, err := GenWideTrial(cfg, i)
				if err != nil {
					t.Fatalf("trial %d: %v", i, err)
				}
				tr.Rebalance.Interval = a.rebalance
				if err := tr.Check(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWideSeqLockstep covers the wide sequential engine itself through the
// same generator (the cross-engine trials use it only as the reference).
func TestWideSeqLockstep(t *testing.T) {
	cfg := WideDiffConfig{Seed: 11, Engines: []core.Engine{core.EngineSeq}}
	for i := 0; i < 4; i++ {
		tr, err := GenWideTrial(cfg, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenWideTrialDeterministic guards the repro contract: the same
// (seed, index) must regenerate the identical wide trial.
func TestGenWideTrialDeterministic(t *testing.T) {
	cfg := WideDiffConfig{Seed: 99}
	a, err := GenWideTrial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenWideTrial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec != b.Spec || a.Seed != b.Seed {
		t.Fatalf("wide trial not deterministic:\n%s\n%s", a.Spec, b.Spec)
	}
	if fmt.Sprintf("%+v", a.Opts) != fmt.Sprintf("%+v", b.Opts) {
		t.Fatalf("options not deterministic: %+v vs %+v", a.Opts, b.Opts)
	}
	if len(a.Wide.Changes) != len(b.Wide.Changes) || a.Wide.Lanes != b.Wide.Lanes {
		t.Fatalf("wide stimulus not deterministic")
	}
}
