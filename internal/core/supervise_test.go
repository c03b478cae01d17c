package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// workload builds the shared test circuit and stimulus.
func workload(t *testing.T) (*circuit.Circuit, *vectors.Stimulus, circuit.Tick) {
	t.Helper()
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 250, Inputs: 8, Outputs: 6, Seed: 3, FFRatio: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 12, HalfPeriod: 60, Activity: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c, stim, Horizon(c, stim)
}

func golden(t *testing.T, c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick) *Report {
	t.Helper()
	base, err := Simulate(c, stim, until, Options{Engine: EngineSeq, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestCheckpointRestoreAllEngines writes checkpoints from a run, then
// resumes every event-driven engine from a mid-run snapshot and requires
// the spliced waveform to be bit-identical to the uninterrupted golden run.
func TestCheckpointRestoreAllEngines(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)

	dir := t.TempDir()
	if _, err := Simulate(c, stim, until, Options{
		Engine: EngineSeq, System: logic.TwoValued,
		CheckpointEvery: 200, CheckpointDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoints written (err=%v)", err)
	}
	sort.Strings(names)
	mid := names[len(names)/2]
	st, err := ckpt.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Time == 0 || circuit.Tick(st.Time) >= until {
		t.Fatalf("mid checkpoint at t=%d is not mid-run (until=%d)", st.Time, until)
	}

	for _, e := range Engines() {
		if e == EngineOblivious {
			continue
		}
		rep, err := Simulate(c, stim, until, Options{
			Engine: e, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
			Restore: st,
		})
		if err != nil {
			t.Fatalf("%v restore: %v", e, err)
		}
		if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
			t.Fatalf("%v: restored waveform differs from uninterrupted run:\n%s", e, d)
		}
		for g := range base.Values {
			if base.Values[g] != rep.Values[g] {
				t.Fatalf("%v: restored final value mismatch at gate %d", e, g)
			}
		}
		if rep.EndTime != base.EndTime {
			t.Fatalf("%v: restored EndTime %d, want %d", e, rep.EndTime, base.EndTime)
		}
	}

	// Restoring into the oblivious engine is rejected, not silently wrong.
	if _, err := Simulate(c, stim, until, Options{Engine: EngineOblivious, System: logic.TwoValued, Restore: st}); err == nil {
		t.Fatal("oblivious restore accepted")
	}
}

// TestCheckpointedRunKeepsCheckpointingAfterRestore resumes from one
// snapshot while writing new snapshots, and requires the post-boundary
// snapshots of the resumed run to match the originals.
func TestCheckpointedRunKeepsCheckpointingAfterRestore(t *testing.T) {
	c, stim, until := workload(t)
	dir1 := t.TempDir()
	if _, err := Simulate(c, stim, until, Options{
		Engine: EngineSeq, System: logic.TwoValued, CheckpointEvery: 200, CheckpointDir: dir1,
	}); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir1, "ckpt-*.json"))
	sort.Strings(names)
	if len(names) < 2 {
		t.Fatalf("need >= 2 checkpoints, got %d", len(names))
	}
	st, err := ckpt.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if _, err := Simulate(c, stim, until, Options{
		Engine: EngineSeq, System: logic.TwoValued, Restore: st,
		CheckpointEvery: 200, CheckpointDir: dir2,
	}); err != nil {
		t.Fatal(err)
	}
	for _, orig := range names[1:] {
		resumed := filepath.Join(dir2, filepath.Base(orig))
		a, err := os.ReadFile(orig)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(resumed)
		if err != nil {
			t.Fatalf("resumed run did not write %s: %v", filepath.Base(orig), err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: resumed checkpoint differs from original", filepath.Base(orig))
		}
	}
}

// TestSupervisedHangFallsBack injects a permanent LP stall into the
// asynchronous engines and requires the supervisor to complete the run via
// watchdog-triggered fallback, with the waveform equal to the golden run.
func TestSupervisedHangFallsBack(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	for _, e := range []Engine{EngineCMB, EngineTimeWarp} {
		t.Run(e.String(), func(t *testing.T) {
			hook := inject.NewHook(1, nil)
			hook.HangLP = 1
			rep, err := Simulate(c, stim, until, Options{
				Engine: e, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
				Chaos: hook,
				Supervise: &SuperviseOptions{
					Watchdog: 250 * time.Millisecond,
					Retries:  0,
					Fallback: true,
				},
			})
			if err != nil {
				t.Fatalf("supervised run failed outright: %v", err)
			}
			if rep.Supervision == nil || rep.Supervision.Fallbacks < 1 {
				t.Fatalf("no fallback recorded: %+v", rep.Supervision)
			}
			if rep.Supervision.FinalEngine == e {
				t.Fatalf("hung engine %v reported as final", e)
			}
			if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
				t.Fatalf("degraded waveform differs from golden:\n%s", d)
			}
			if rep.Metrics == nil || rep.Metrics.Gauges["supervise_fallbacks"] < 1 {
				t.Fatalf("supervise_fallbacks gauge missing: %+v", rep.Metrics)
			}
			// The failed attempt must be classified as a hang.
			if len(rep.Supervision.Attempts) == 0 || !strings.Contains(rep.Supervision.Attempts[0], "hang") {
				t.Fatalf("hang attempt not recorded: %v", rep.Supervision.Attempts)
			}
		})
	}
}

// TestSupervisedPanicRetries injects a one-shot panic; the supervisor must
// recover it by retrying the same engine, no fallback needed.
func TestSupervisedPanicRetries(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	// The wide cases pack independent per-lane stimuli; sampled lanes
	// must match the scalar reference run of that lane's stimulus.
	ws, lanes, err := vectors.ClockedBatch(c, vectors.ClockedConfig{Clock: "clk", Cycles: 12, HalfPeriod: 60, Activity: 0.5, Seed: 3}, logic.Lanes, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	wuntil := WideHorizon(c, ws)
	cases := []struct {
		e    Engine
		wide bool
	}{{EngineCMB, false}, {EngineTimeWarp, false}, {EngineCMB, true}, {EngineTimeWarp, true}}
	for _, tc := range cases {
		name := tc.e.String()
		if tc.wide {
			name += "-wide"
		}
		t.Run(name, func(t *testing.T) {
			hook := inject.NewHook(1, nil)
			hook.PanicLP = 1
			opts := Options{
				Engine: tc.e, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
				Chaos: hook,
				Supervise: &SuperviseOptions{
					Retries:  2,
					Fallback: false,
				},
			}
			var info RunInfo
			if tc.wide {
				rep, err := SimulateWide(c, ws, wuntil, opts)
				if err != nil {
					t.Fatalf("supervised run failed outright: %v", err)
				}
				info = rep.RunInfo
				for _, k := range []int{0, 31, logic.Lanes - 1} {
					ref, err := seq.Run(c, lanes[k], wuntil, seq.Config{System: logic.TwoValued})
					if err != nil {
						t.Fatal(err)
					}
					init := func(g circuit.GateID) logic.Value {
						return logic.TwoValued.Project(circuit.InitialValue(c.Gates[g].Kind))
					}
					if d := trace.Diff(ref.Waveform, rep.Waveform.Lane(k, init), 5); d != "" {
						t.Fatalf("lane %d: recovered waveform differs from scalar seq:\n%s", k, d)
					}
				}
			} else {
				rep, err := Simulate(c, stim, until, opts)
				if err != nil {
					t.Fatalf("supervised run failed outright: %v", err)
				}
				info = rep.RunInfo
				if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
					t.Fatalf("recovered waveform differs from golden:\n%s", d)
				}
			}
			if info.Supervision == nil || info.Supervision.Recoveries != 1 || info.Supervision.Fallbacks != 0 {
				t.Fatalf("expected exactly one retry recovery: %+v", info.Supervision)
			}
			if info.Supervision.FinalEngine != tc.e {
				t.Fatalf("final engine %v, want %v", info.Supervision.FinalEngine, tc.e)
			}
			if info.Metrics == nil || info.Metrics.Gauges["supervise_recoveries"] != 1 {
				t.Fatalf("supervise_recoveries gauge wrong: %+v", info.Metrics)
			}
		})
	}
}

func TestSupervisedEventLimitNotRetried(t *testing.T) {
	c, stim, until := workload(t)
	begin := time.Now()
	_, err := Simulate(c, stim, until, Options{
		Engine: EngineCMB, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
		MaxEvents: 10,
		Supervise: &SuperviseOptions{Retries: 5, Backoff: time.Second, Fallback: true},
	})
	if err == nil {
		t.Fatal("event limit did not surface")
	}
	var se *SimError
	if !errors.As(err, &se) || se.Kind != KindEventLimit {
		t.Fatalf("expected KindEventLimit, got %v", err)
	}
	// Five retries with 1s backoff would take >= 5s; failing fast proves
	// no retry happened.
	if time.Since(begin) > 3*time.Second {
		t.Fatal("event limit appears to have been retried")
	}
}

// TestUnsupervisedHangReport arms only the watchdog (no fallback) and
// checks the machine-readable hang report surfaces with per-LP state.
func TestUnsupervisedHangReport(t *testing.T) {
	c, stim, until := workload(t)
	hook := inject.NewHook(1, nil)
	hook.HangLP = 0
	_, err := Simulate(c, stim, until, Options{
		Engine: EngineCMB, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
		Chaos: hook,
		Supervise: &SuperviseOptions{
			Watchdog: 250 * time.Millisecond,
			Retries:  0,
			Fallback: false,
		},
	})
	if err == nil {
		t.Fatal("hung run reported success")
	}
	var se *SimError
	if !errors.As(err, &se) || se.Kind != KindHang {
		t.Fatalf("expected KindHang, got %v", err)
	}
	var hr *supervise.HangReport
	if !errors.As(err, &hr) {
		t.Fatalf("no hang report in %v", err)
	}
	if hr.Engine != "cmb" || len(hr.LPs) != 4 {
		t.Fatalf("report wrong: %+v", hr)
	}
	// The report must round-trip as JSON (machine readability).
	msg := err.Error()
	idx := strings.Index(msg, "{")
	if idx < 0 {
		t.Fatalf("no JSON body in %q", msg)
	}
	var decoded supervise.HangReport
	if jerr := json.Unmarshal([]byte(msg[idx:]), &decoded); jerr != nil {
		t.Fatalf("hang report does not parse: %v", jerr)
	}
}

// TestSupervisedCleanRunUntouched: supervision of a healthy run must not
// change its result or record recoveries.
func TestSupervisedCleanRunUntouched(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	for _, e := range Engines() {
		rep, err := Simulate(c, stim, until, Options{
			Engine: e, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
			Supervise: &SuperviseOptions{Watchdog: 2 * time.Second, Retries: 1, Fallback: true},
		})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if rep.Supervision.Recoveries != 0 || rep.Supervision.Fallbacks != 0 {
			t.Fatalf("%v: clean run recorded recoveries: %+v", e, rep.Supervision)
		}
		if e != EngineOblivious {
			if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
				t.Fatalf("%v: supervised waveform differs:\n%s", e, d)
			}
		}
	}
}

// TestHistoryLimitThrottles bounds Time Warp history memory and requires
// the run to still reproduce the golden waveform while reporting throttle
// activity.
func TestHistoryLimitThrottles(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	rep, err := Simulate(c, stim, until, Options{
		Engine: EngineTimeWarp, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
		HistoryLimit: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
		t.Fatalf("throttled waveform differs from golden:\n%s", d)
	}
	if rep.Metrics == nil {
		t.Fatal("no metrics report")
	}
	if rep.Metrics.Gauges["history_peak_words"] <= 0 {
		t.Fatalf("history accounting inert: gauges=%v", rep.Metrics.Gauges)
	}
	if rep.Metrics.Gauges["mem_throttle_rounds"] < 1 {
		t.Fatalf("tiny limit never throttled: gauges=%v", rep.Metrics.Gauges)
	}
}
