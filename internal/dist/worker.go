package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/cmb"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/sim/timewarp"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// jobWait bounds how long a connected worker waits for its FJob frame.
const jobWait = 30 * time.Second

// resultLinger bounds how long a finished worker waits for the hub's
// FDone before exiting anyway (the result frame is sequenced, so the
// linger exists only to keep the connection up for retransmits).
const resultLinger = 60 * time.Second

// ErrKilled is the failure a forcibly killed in-process worker reports.
var ErrKilled = errors.New("dist: worker killed")

// bufferedFrame is one frame received before the seam existed.
type bufferedFrame struct {
	kind    byte
	payload []byte
}

// Worker is one shard of a distributed run: it dials the coordinator,
// receives its job, decodes and checks the plan it carries, writes
// shard-restricted checkpoints via a sequential shadow, runs its engine
// over the local LPs, and reports the shard result.
type Worker struct {
	network string
	addr    string
	shard   int
	attempt int

	ep *wire.Endpoint

	// mu guards seam, preSeam, and mesh: frames can arrive (on the
	// endpoint read goroutine) before the job does, and the seam cannot
	// exist until the job's plan is decoded. Batches and GVT commands
	// that arrive early are buffered and replayed through the seam at
	// install time, under the same lock, so no sequenced frame is ever
	// dropped and order is preserved.
	mu      sync.Mutex
	seam    *wire.Seam
	preSeam []bufferedFrame
	mesh    *meshNet

	jobCh    chan []byte
	meshCh   chan wire.MeshTable
	doneCh   chan struct{}
	doneOnce sync.Once
	downCh   chan struct{}
	downOnce sync.Once
	downErr  error
}

// NewWorker creates a worker that will dial addr on network and
// identify itself as (shard, attempt). Run drives it to completion.
func NewWorker(network, addr string, shard, attempt int) *Worker {
	w := &Worker{
		network: network,
		addr:    addr,
		shard:   shard,
		attempt: attempt,
		jobCh:   make(chan []byte, 1),
		meshCh:  make(chan wire.MeshTable, 1),
		doneCh:  make(chan struct{}),
		downCh:  make(chan struct{}),
	}
	w.ep = wire.New(wire.Config{
		Shard: -1, // the peer is the coordinator
		Dial:  func() (net.Conn, error) { return net.Dial(network, addr) },
		Hello: wire.Hello{Shard: int32(shard), Attempt: int32(attempt)},
		// Generous redial budget with tight pacing: chaos connection
		// drops must be ridden out quickly, while a truly dead hub still
		// fails the link inside a few seconds.
		MaxRedials: 60,
		RedialBase: 5 * time.Millisecond,
		RedialCap:  250 * time.Millisecond,
		Handler:    w.handle,
		OnDown:     w.onDown,
	})
	return w
}

// Kill forces the worker down, as close to SIGKILL as an in-process
// worker gets: the link fails permanently, the engine aborts through
// the seam's OnDown hook, and Run returns promptly.
func (w *Worker) Kill() { w.ep.Fail(ErrKilled) }

// handle dispatches one delivered frame on the endpoint read goroutine.
func (w *Worker) handle(kind byte, payload []byte) {
	w.mu.Lock()
	seam := w.seam
	if seam == nil {
		switch kind {
		case wire.FBatch, wire.FGVTStart, wire.FGVTDone:
			w.preSeam = append(w.preSeam, bufferedFrame{kind: kind, payload: payload})
			w.mu.Unlock()
			return
		}
	}
	w.mu.Unlock()
	if seam != nil && seam.HandleFrame(kind, payload) {
		return
	}
	switch kind {
	case wire.FJob:
		select {
		case w.jobCh <- payload:
		default:
		}
	case wire.FMeshTable:
		if t, err := wire.DecodeMeshTable(payload); err == nil {
			select {
			case w.meshCh <- t:
			default:
			}
		}
	case wire.FChaos:
		co, err := wire.DecodeChaos(payload)
		if err != nil {
			return
		}
		w.mu.Lock()
		m := w.mesh
		w.mu.Unlock()
		if m != nil {
			m.applyChaos(co)
		}
	case wire.FDone:
		w.doneOnce.Do(func() { close(w.doneCh) })
	}
}

// onDown records the permanent link failure and propagates it.
func (w *Worker) onDown(err error) {
	w.mu.Lock()
	seam := w.seam
	w.mu.Unlock()
	if seam != nil {
		seam.Down(err)
	}
	w.downOnce.Do(func() {
		w.downErr = err
		close(w.downCh)
	})
}

// installSeam publishes the seam and replays every buffered frame
// through it, under the lock, so buffered and live frames cannot
// interleave out of order.
func (w *Worker) installSeam(s *wire.Seam) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seam = s
	for _, fr := range w.preSeam {
		s.HandleFrame(fr.kind, fr.payload)
	}
	w.preSeam = nil
}

// Run connects, receives the job, and executes the shard to completion.
// The returned error is the worker's local verdict; the hub learns of
// failures through the FError frame (or through silence).
func (w *Worker) Run() error {
	defer w.ep.Close()
	if err := w.ep.Connect(); err != nil {
		return err
	}
	var payload []byte
	select {
	case payload = <-w.jobCh:
	case <-w.downCh:
		return w.downErr
	case <-time.After(jobWait):
		return fmt.Errorf("dist: worker shard %d: no job within %v", w.shard, jobWait)
	}
	job, err := DecodeJob(payload)
	if err != nil {
		return w.sendError(refuse(err))
	}
	sys, err := job.LogicSystem()
	if err != nil {
		return w.sendError(refuse(err))
	}
	wl, err := decodePlan(job.Plan, job.Shards)
	if err != nil {
		return w.sendError(refuse(err))
	}
	c, stim, part, shardOf := wl.c, wl.stim, wl.part, wl.shardOf
	seam := wire.NewSeam(w.ep, job.Shard, shardOf)
	w.installSeam(seam)

	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(job.Heartbeat())
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
				ev, idle := seam.Progress()
				// Piggyback the cumulative wire counters on the beacon so
				// the hub can observe a stable Mattern cut without extra
				// round-trips in steady state.
				sent, recv := seam.SentRecv()
				w.ep.SendUnseq(wire.FHeartbeat,
					wire.AppendHeartbeat(nil, wire.Heartbeat{Events: ev, Idle: idle, Sent: sent, Recv: recv}))
			}
		}
	}()
	defer func() {
		close(stopHB)
		hbWG.Wait()
	}()

	// Mesh handshake: announce the listener, wait for the hub's routing
	// table, then connect exactly the cut-edge neighbors. This completes
	// before the checkpoint shadow and the engine, so every FBatch the
	// engine sends already has its direct route installed.
	if job.Mesh && job.Shards > 1 {
		adj := meshNeighbors(c, part.Assign, shardOf, job.Shards)
		m, err := newMeshNet(w.network, job.MeshDir, job, seam, adj[job.Shard])
		if err != nil {
			return w.sendError(err)
		}
		defer m.close()
		w.mu.Lock()
		w.mesh = m
		w.mu.Unlock()
		deadline := time.Now().Add(meshSetupWait)
		if err := w.ep.Send(wire.FMeshAddr,
			wire.AppendMeshAddr(nil, wire.MeshAddr{Shard: job.Shard, Addr: m.Addr()})); err != nil {
			return w.sendError(err)
		}
		var table wire.MeshTable
		select {
		case table = <-w.meshCh:
		case <-w.downCh:
			return w.downErr
		case <-time.After(meshSetupWait):
			return w.sendError(fmt.Errorf("dist: shard %d: no mesh table within %v", job.Shard, meshSetupWait))
		}
		if err := m.connect(w.network, table, adj[job.Shard], deadline); err != nil {
			return w.sendError(err)
		}
	}

	var boot *ckpt.State
	if job.Boot != "" {
		boot, err = ckpt.ReadFile(job.Boot)
		if err != nil {
			return w.sendError(err)
		}
		if err := boot.Check(c, sys); err != nil {
			return w.sendError(err)
		}
	}
	owned := ownedGates(part.Assign, shardOf, job.Shard, c.NumGates())

	// Sequential shadow: regenerate the trajectory and persist this
	// shard's restriction of every boundary snapshot before the engine
	// runs. Every engine reproduces the sequential trajectory exactly,
	// so these cuts are valid restore points no matter which engine (or
	// which attempt) later boots from them. Inbound batches arriving
	// during this phase park in the seam's pending buffers.
	var ckptFullBytes, ckptDeltaBytes, ckptFulls, ckptDeltas uint64
	if job.CheckpointEvery > 0 && job.CheckpointDir != "" {
		if err := os.MkdirAll(job.CheckpointDir, 0o755); err != nil {
			return w.sendError(err)
		}
		// In delta mode the first boundary of each attempt is a full
		// snapshot and every later one a delta chained to its sealed
		// predecessor. A delta's base is always the boundary one interval
		// earlier on the deterministic trajectory, so delta files — like
		// full ones — are attempt-independent and safely overwrite stale
		// copies from torn-down attempts.
		var last *ckpt.State
		_, err := seq.Run(c, stim, circuit.Tick(job.Until), seq.Config{
			System:          sys,
			MaxEvents:       job.MaxEvents,
			CheckpointEvery: circuit.Tick(job.CheckpointEvery),
			Checkpoint: func(st *ckpt.State) error {
				cur := restrictToShard(st, owned)
				if !job.CkptDelta || last == nil {
					path := filepath.Join(job.CheckpointDir, shardCkptName(job.Shard, cur.Time))
					if err := ckpt.WriteFile(path, cur); err != nil {
						return err
					}
					ckptFullBytes += fileSize(path)
					ckptFulls++
				} else {
					d, err := ckpt.DeltaFrom(last, cur)
					if err != nil {
						return err
					}
					path := filepath.Join(job.CheckpointDir, shardDeltaName(job.Shard, cur.Time))
					if err := ckpt.WriteDeltaFile(path, d); err != nil {
						return err
					}
					ckptDeltaBytes += fileSize(path)
					ckptDeltas++
				}
				last = cur
				return nil
			},
			Boot: boot,
		})
		if err != nil {
			return w.sendError(err)
		}
	}

	out, err := w.runEngine(job, c, stim, part, sys, boot, seam)
	if err != nil {
		return w.sendError(err)
	}

	// The shard waveform is absolute: every owned-gate sample from t=0
	// through the horizon, boot prefix included. Engines return only the
	// post-boot suffix, so the prefix is prepended here; both halves are
	// filtered to owned gates so the hub's merge is a plain union.
	samples := make([]wfSample, 0, len(out.waveform))
	for _, sm := range prefixOf(boot) {
		if owned[sm.Gate] {
			samples = append(samples, sm)
		}
	}
	for _, sm := range out.waveform {
		if owned[sm.Gate] {
			samples = append(samples, wfSample{Time: uint64(sm.Time), Gate: sm.Gate, Value: sm.Value})
		}
	}
	res := shardResult{
		Shard:          job.Shard,
		Values:         out.values,
		Waveform:       samples,
		EndTime:        uint64(out.endTime),
		Events:         out.events,
		GVT:            uint64(out.gvt),
		MeshBytes:      seam.MeshBytes(),
		CkptFullBytes:  ckptFullBytes,
		CkptDeltaBytes: ckptDeltaBytes,
		CkptFulls:      ckptFulls,
		CkptDeltas:     ckptDeltas,
	}
	rp, err := json.Marshal(&res)
	if err != nil {
		return w.sendError(err)
	}
	if err := w.ep.Send(wire.FResult, rp); err != nil {
		return err
	}
	select {
	case <-w.doneCh:
	case <-w.downCh:
	case <-time.After(resultLinger):
	}
	return nil
}

// engineOut is the engine-independent slice of a shard run's result.
type engineOut struct {
	values   []logic.Value
	waveform trace.Waveform
	endTime  circuit.Tick
	events   uint64
	gvt      circuit.Tick
}

// runEngine dispatches the job's engine over the local LPs.
func (w *Worker) runEngine(job *Job, c *circuit.Circuit, stim *vectors.Stimulus,
	part *partition.Partition, sys logic.System, boot *ckpt.State, seam *wire.Seam) (*engineOut, error) {
	until := circuit.Tick(job.Until)
	switch job.Engine {
	case "cmb", "cmb-demand":
		mode := cmb.NullEager
		if job.Engine == "cmb-demand" {
			mode = cmb.NullDemand
		}
		res, err := cmb.Run(c, stim, until, cmb.Config{
			Partition:   part,
			Mode:        mode,
			System:      sys,
			MaxEvents:   job.MaxEvents,
			HangTimeout: job.HangTimeout(),
			Boot:        boot,
			Dist:        seam,
		})
		if err != nil {
			return nil, err
		}
		return &engineOut{
			values:   res.Values,
			waveform: res.Waveform,
			endTime:  res.EndTime,
			events:   appliedEvents(res.Stats.LPs),
		}, nil
	case "timewarp", "timewarp-lazy":
		cancel := timewarp.Aggressive
		if job.Engine == "timewarp-lazy" {
			cancel = timewarp.Lazy
		}
		res, err := timewarp.Run(c, stim, until, timewarp.Config{
			Partition:    part,
			Cancellation: cancel,
			System:       sys,
			MaxEvents:    job.MaxEvents,
			HangTimeout:  job.HangTimeout(),
			Boot:         boot,
			Dist:         seam,
		})
		if err != nil {
			return nil, err
		}
		return &engineOut{
			values:   res.Values,
			waveform: res.Waveform,
			endTime:  res.EndTime,
			events:   appliedEvents(res.Stats.LPs),
			gvt:      res.GVT,
		}, nil
	}
	return nil, fmt.Errorf("dist: engine %q does not distribute", job.Engine)
}

// appliedEvents sums committed net changes across the shard's LPs.
func appliedEvents(lps []metrics.LPCounters) uint64 {
	var n uint64
	for _, lp := range lps {
		n += lp.EventsApplied
	}
	return n
}

// sendError flattens the failure into an FError frame (best effort; the
// hub also notices dead links without one) and returns it.
func (w *Worker) sendError(err error) error {
	we := wireError{Engine: "dist", LP: -1, Cause: err.Error()}
	var se *supervise.SimError
	if errors.As(err, &se) {
		we = wireError{
			Engine:      se.Engine,
			LP:          se.LP,
			Phase:       se.Phase,
			ModeledTime: uint64(se.ModeledTime),
			Kind:        uint8(se.Kind),
			Cause:       se.Error(),
		}
	}
	if p, merr := json.Marshal(&we); merr == nil {
		w.ep.Send(wire.FError, p)
	}
	return err
}

// toSimError rebuilds a structured error from a worker's FError payload.
func (e *wireError) toSimError() *supervise.SimError {
	return &supervise.SimError{
		Engine:      e.Engine,
		LP:          e.LP,
		Phase:       e.Phase,
		ModeledTime: circuit.Tick(e.ModeledTime),
		Kind:        supervise.Kind(e.Kind),
		Cause:       errors.New(e.Cause),
	}
}
