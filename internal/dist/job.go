// Package dist runs one simulation as a set of worker processes, each
// owning a contiguous shard of the LPs, joined by the reliable socket
// transport in internal/dist/wire and coordinated by an in-process hub.
//
// The hub is a star: every worker holds exactly one connection to the
// coordinator, which relays framed event batches between shards, drives
// the distributed Mattern-style GVT conversation for the optimistic
// engines, and watches per-connection heartbeats. Fault tolerance is
// checkpoint-restart over the whole fleet: each worker's sequential
// shadow writes shard-restricted snapshots at fixed modeled-time
// boundaries, and when a shard is lost (crash, hang, or partition that
// outlives the retry budget) the hub kills every worker, merges the
// latest boundary that is complete and uncorrupted across all shards,
// and relaunches the fleet booted from the merged cut. When the restart
// budget is exhausted the run degrades to a single-process supervised
// run (sync, then seq) or fails with a structured shard-loss error.
//
// Workers do not rebuild the workload. The hub resolves the circuit, the
// stimulus and the partition once per run, and every FJob frame carries
// that plan: the netlist, the stimulus, the gate->LP assignment and the
// LP->shard map, sealed by a content fingerprint. A worker validates the
// plan and recomputes the fingerprint before it simulates, so shards
// agree on gate ownership by check rather than by assumption, and a
// captured job replays with no netlist file or generator at hand.
package dist

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/supervise"
	"repro/internal/vectors"
)

// Job is the spec a worker receives in its FJob frame: the engine
// configuration, this worker's place in the fleet, and the run's plan.
// It is JSON so a captured job can be replayed by hand.
type Job struct {
	// Engine is the worker engine: cmb, cmb-demand, timewarp, or
	// timewarp-lazy. The deadlock-recovery and hybrid variants need
	// global in-process coordination and do not distribute.
	Engine string `json:"engine"`
	// Until is the simulation horizon (inclusive), fixed by the hub so
	// every shard agrees.
	Until uint64 `json:"until"`
	// System is the logic value system (2, 4, or 9).
	System uint8 `json:"system"`
	// MaxEvents aborts runaway shards (0 = unlimited).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// HangTimeoutMs arms the worker's progress watchdog (0 = off).
	HangTimeoutMs int64 `json:"hang_timeout_ms,omitempty"`
	// HeartbeatMs paces the worker's liveness beacon.
	HeartbeatMs int64 `json:"heartbeat_ms"`

	// Shards is the fleet size; Shard is this worker's index; Attempt
	// is the hub's restart counter (echoed in the hello so the hub can
	// reject zombies from torn-down attempts).
	Shards  int `json:"shards"`
	Shard   int `json:"shard"`
	Attempt int `json:"attempt"`

	// CheckpointEvery/CheckpointDir arm the worker's sequential-shadow
	// shard checkpointer (0/"" = off).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	// Boot is the path of the merged snapshot this attempt resumes
	// from ("" = fresh start at t=0).
	Boot string `json:"boot,omitempty"`

	// Mesh routes inter-shard event batches over direct worker-to-worker
	// links; the hub keeps only the control plane. MeshDir holds the mesh
	// listener sockets for the unix network.
	Mesh    bool   `json:"mesh,omitempty"`
	MeshDir string `json:"mesh_dir,omitempty"`
	// CkptDelta makes shard checkpoints incremental: a full snapshot at
	// the first boundary of each attempt, fingerprint-chained delta
	// records after.
	CkptDelta bool `json:"ckpt_delta,omitempty"`

	// Plan is the run's encoded plan, identical in every job of the run.
	Plan json.RawMessage `json:"plan"`
}

// plan is the wire form of a workload.
type plan struct {
	Gates       []circuit.Gate   `json:"gates"`
	Inputs      []circuit.GateID `json:"inputs"`
	Outputs     []circuit.GateID `json:"outputs"`
	Stimulus    vectors.Stimulus `json:"stimulus"`
	Assign      []int            `json:"assign"`
	ShardOf     []int            `json:"shard_of"`
	Fingerprint string           `json:"fingerprint"`
}

// workload is a plan in memory: what the hub resolves from its recipe
// and what every worker decodes from its job.
type workload struct {
	c       *circuit.Circuit
	stim    *vectors.Stimulus
	part    *partition.Partition
	shardOf []int // LP -> shard
}

// encode seals the workload into the plan every job of the run carries.
func (wl *workload) encode() (json.RawMessage, error) {
	return json.Marshal(&plan{
		Gates: wl.c.Gates, Inputs: wl.c.Inputs, Outputs: wl.c.Outputs,
		Stimulus: *wl.stim, Assign: wl.part.Assign, ShardOf: wl.shardOf,
		Fingerprint: wl.fingerprint(),
	})
}

// fingerprint extends ckpt.Fingerprint over the primary I/O lists, the
// stimulus, the assignment and the shard map.
func (wl *workload) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintln(h, ckpt.Fingerprint(wl.c), wl.c.Inputs, wl.c.Outputs, wl.stim.End)
	for _, ch := range wl.stim.Changes {
		fmt.Fprintf(h, "%d %d %d\n", ch.Time, ch.Input, ch.Value)
	}
	fmt.Fprintln(h, wl.part.Assign, wl.shardOf)
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// decodePlan rebuilds a job's workload. The plan comes from outside the
// process, so it is validated (the netlist by circuit.New, stimulus on
// primary inputs only, assignment and shard indices in range) and its
// fingerprint recomputed: a plan whose content does not match its seal
// is refused.
func decodePlan(p []byte, shards int) (*workload, error) {
	var pl plan
	if err := json.Unmarshal(p, &pl); err != nil {
		return nil, fmt.Errorf("dist: plan decode: %w", err)
	}
	c, err := circuit.New(pl.Gates, pl.Inputs, pl.Outputs)
	if err != nil {
		return nil, err
	}
	if err := pl.Stimulus.Validate(c); err != nil {
		return nil, err
	}
	for lp, s := range pl.ShardOf {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("dist: plan maps lp %d to shard %d of %d", lp, s, shards)
		}
	}
	part := &partition.Partition{Blocks: len(pl.ShardOf), Assign: pl.Assign}
	if err := part.Validate(c); err != nil {
		return nil, err
	}
	wl := &workload{c: c, stim: &pl.Stimulus, part: part, shardOf: pl.ShardOf}
	if fp := wl.fingerprint(); fp != pl.Fingerprint {
		return nil, fmt.Errorf("dist: plan fingerprint %s does not match its content %s", pl.Fingerprint, fp)
	}
	return wl, nil
}

// phaseJob marks a worker's refusal of its job. The hub does not restart
// on it: every attempt ships the same plan, so the refusal would repeat.
const phaseJob = "job"

// refuse wraps a job rejection for the FError frame.
func refuse(err error) error {
	return &supervise.SimError{Engine: "dist", LP: -1, Phase: phaseJob, Cause: err}
}

// validEngine reports whether the engine name distributes.
func validEngine(name string) bool {
	switch name {
	case "cmb", "cmb-demand", "timewarp", "timewarp-lazy":
		return true
	}
	return false
}

// HangTimeout converts the wire field back to a duration.
func (j *Job) HangTimeout() time.Duration {
	return time.Duration(j.HangTimeoutMs) * time.Millisecond
}

// Heartbeat converts the wire field back to a duration (floored so a
// zero job cannot spin the beacon loop).
func (j *Job) Heartbeat() time.Duration {
	if j.HeartbeatMs <= 0 {
		return 25 * time.Millisecond
	}
	return time.Duration(j.HeartbeatMs) * time.Millisecond
}

// LogicSystem decodes the System field.
func (j *Job) LogicSystem() (logic.System, error) {
	switch j.System {
	case 2:
		return logic.TwoValued, nil
	case 4:
		return logic.FourValued, nil
	case 0, 9:
		return logic.NineValued, nil
	}
	return 0, fmt.Errorf("dist: invalid logic system %d", j.System)
}

// Encode marshals the job for an FJob frame.
func (j *Job) Encode() ([]byte, error) { return json.Marshal(j) }

// DecodeJob unmarshals an FJob payload.
func DecodeJob(p []byte) (*Job, error) {
	var j Job
	if err := json.Unmarshal(p, &j); err != nil {
		return nil, fmt.Errorf("dist: job decode: %w", err)
	}
	if !validEngine(j.Engine) {
		return nil, fmt.Errorf("dist: engine %q does not distribute (cmb, cmb-demand, timewarp, timewarp-lazy)", j.Engine)
	}
	if j.Shard < 0 || j.Shard >= j.Shards {
		return nil, fmt.Errorf("dist: job places shard %d in a fleet of %d", j.Shard, j.Shards)
	}
	return &j, nil
}

// shardResult is the JSON payload of a worker's FResult frame: final
// values and waveform samples for the gates this shard owns, plus the
// shard's bookkeeping. Values is full-length with non-owned entries
// zero; the hub reads only the owned gates.
type shardResult struct {
	Shard    int           `json:"shard"`
	Values   []logic.Value `json:"values"`
	Waveform []wfSample    `json:"waveform"`
	EndTime  uint64        `json:"end_time"`
	Events   uint64        `json:"events"`
	GVT      uint64        `json:"gvt,omitempty"`
	// MeshBytes is FBatch payload volume this shard sent over direct
	// mesh links (0 on the hub-relay path); the hub folds these into the
	// mesh_bytes gauge opposite its own hub_bytes relay count.
	MeshBytes uint64 `json:"mesh_bytes,omitempty"`
	// Checkpoint volume accounting: bytes and record counts written as
	// full snapshots versus delta records, behind the delta_ratio gauge.
	CkptFullBytes  uint64 `json:"ckpt_full_bytes,omitempty"`
	CkptDeltaBytes uint64 `json:"ckpt_delta_bytes,omitempty"`
	CkptFulls      uint64 `json:"ckpt_fulls,omitempty"`
	CkptDeltas     uint64 `json:"ckpt_deltas,omitempty"`
}

// wfSample is a JSON-stable waveform sample.
type wfSample struct {
	Time  uint64         `json:"t"`
	Gate  circuit.GateID `json:"g"`
	Value logic.Value    `json:"v"`
}

// wireError is the JSON payload of a worker's FError frame: a SimError
// flattened for the wire (the cause survives as text).
type wireError struct {
	Engine      string `json:"engine"`
	LP          int    `json:"lp"`
	Phase       string `json:"phase"`
	ModeledTime uint64 `json:"t"`
	Kind        uint8  `json:"kind"`
	Cause       string `json:"cause"`
}
