package dist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/simtest/chaos/netfault"
)

// hookSpawner launches in-process workers, calling before ahead of each.
type hookSpawner struct{ before func(shard, attempt int) }

func (s hookSpawner) Spawn(network, addr string, shard, attempt int) (Proc, error) {
	s.before(shard, attempt)
	return InProcSpawner{}.Spawn(network, addr, shard, attempt)
}

// TestPlanRoundTrip: a plan decodes to the workload it was encoded from:
// the same circuit fingerprint, stimulus, assignment and shard map. The
// recipe is a clocked sequential circuit with fine delays, so flip-flops,
// delays and the clocked stimulus all cross the wire.
func TestPlanRoundTrip(t *testing.T) {
	o := testOpts(3)
	o.Circuit, o.FineDelays = "seq300", 5
	wl, err := resolve(o)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wl.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePlan(p, o.Shards)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ckpt.Fingerprint(got.c), ckpt.Fingerprint(wl.c); a != b {
		t.Errorf("circuit fingerprint %s, want %s", a, b)
	}
	if !reflect.DeepEqual(got.c.Inputs, wl.c.Inputs) || !reflect.DeepEqual(got.c.Outputs, wl.c.Outputs) {
		t.Error("primary input/output lists differ")
	}
	if !reflect.DeepEqual(got.stim, wl.stim) {
		t.Error("stimulus differs")
	}
	if !reflect.DeepEqual(got.part.Assign, wl.part.Assign) || got.part.Blocks != wl.part.Blocks {
		t.Error("LP assignment differs")
	}
	if !reflect.DeepEqual(got.shardOf, wl.shardOf) {
		t.Error("shard map differs")
	}
}

// tamper decodes an encoded plan, applies edit, and re-encodes it with
// the original fingerprint.
func tamper(t *testing.T, p []byte, edit func(*plan)) []byte {
	t.Helper()
	var pl plan
	if err := json.Unmarshal(p, &pl); err != nil {
		t.Fatal(err)
	}
	edit(&pl)
	out, err := json.Marshal(&pl)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// flipFanin rewires the first fanin of the last gate that can take it to
// the first primary input: still a valid, acyclic netlist (inputs have
// no fanin), but not the one the fingerprint sealed.
func flipFanin(pl *plan) {
	for g := len(pl.Gates) - 1; g >= 0; g-- {
		if f := pl.Gates[g].Fanin; len(f) > 0 && f[0] != pl.Inputs[0] {
			f[0] = pl.Inputs[0]
			return
		}
	}
}

// TestDecodePlanRejects: a decoded plan is outside input, so content
// that breaks its seal or its invariants is refused before any
// simulation starts.
func TestDecodePlanRejects(t *testing.T) {
	wl := testWorkload(t, 2)
	p, err := wl.encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*plan)
		want string
	}{
		{"flipped-fanin", flipFanin, "fingerprint"},
		{"shard-out-of-range", func(pl *plan) { pl.ShardOf[0] = 2 }, "shard 2 of 2"},
		{"lp-out-of-range", func(pl *plan) { pl.Assign[0] = len(pl.ShardOf) }, "invalid block"},
		{"short-assignment", func(pl *plan) { pl.Assign = pl.Assign[1:] }, "assignment covers"},
		{"stimulus-drives-gate", func(pl *plan) { pl.Stimulus.Changes[0].Input = pl.Outputs[0] }, "not a primary input"},
		{"stimulus-value", func(pl *plan) { pl.Stimulus.Changes[0].Value = logic.Value(200) }, "invalid value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodePlan(tamper(t, p, tc.edit), 2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestWorkerRefusesMismatchedPlan: workers handed a plan whose content
// does not match its fingerprint refuse to run and report a structured
// error through FError; the hub fails the run at once (no restart, no
// fallback) rather than merge a wrong waveform.
func TestWorkerRefusesMismatchedPlan(t *testing.T) {
	_, _, until, _ := golden(t)
	opts := baseOpts(t, "cmb", 2, until)
	opts.CheckpointEvery = 200
	opts.Restarts = 2
	opts.Fallback = true
	launches := 0
	opts.Spawn = hookSpawner{before: func(int, int) { launches++ }}
	h, err := newHub(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.planJSON = tamper(t, h.planJSON, flipFanin)

	res, err := h.run()
	if res != nil {
		t.Fatalf("run with a mismatched plan returned a result (mode %s)", res.FinalMode)
	}
	var se *core.SimError
	if !errors.As(err, &se) {
		t.Fatalf("want a SimError, got %v", err)
	}
	if se.Phase != phaseJob || !strings.Contains(se.Error(), "fingerprint") {
		t.Errorf("error does not name the plan refusal: %v", se)
	}
	if launches != opts.Shards {
		t.Errorf("%d worker launches, want one attempt of %d", launches, opts.Shards)
	}
}

// TestRelaunchWithoutRecipe: the netlist file the hub was built from is
// deleted before a kill forces a fleet relaunch. Relaunched workers run
// the hub's plan, so the recovered run still matches the sequential
// reference.
func TestRelaunchWithoutRecipe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq300.bench")
	c, err := gen.Load("", "seq300", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(f, c, "seq300"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opts := testOpts(2)
	opts.Circuit, opts.Bench = "", path
	wl, err := resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	until := core.Horizon(wl.c, wl.stim)
	ref, err := seq.Run(wl.c, wl.stim, until, seq.Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}

	opts.Engine = "cmb"
	opts.Until = uint64(until)
	opts.WorkDir = t.TempDir()
	opts.CheckpointEvery = 200
	opts.Restarts = 2
	opts.Plan = netfault.Plan{{Op: netfault.OpKill, Shard: 0, AfterFrames: 5, Attempt: 0}}
	opts.Spawn = hookSpawner{before: func(_, attempt int) {
		if attempt > 0 {
			os.Remove(path)
		}
	}}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 || res.FinalMode != "dist" {
		t.Errorf("kill did not force a dist relaunch: recoveries=%d mode=%s", res.Recoveries, res.FinalMode)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("netlist file still present after the relaunch: %v", err)
	}
	checkMatchesGolden(t, res, ref)
}
