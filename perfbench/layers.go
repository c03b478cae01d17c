package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// sample holds one timed iteration's measurements by metric name.
type sample map[string]float64

// stage times f into s[name], adds its heap allocation and GC cycles to
// the runtime.*.<group> metrics, and returns the number of heap objects
// it allocated.
func (s sample) stage(name, group string, f func() error) (mallocs uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	err = f()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	s[name] += d.Seconds()
	s["runtime.alloc_mb."+group] += float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
	s["runtime.gc_cycles."+group] += float64(b.NumGC - a.NumGC)
	return b.Mallocs - a.Mallocs, err
}

// addCounters records the engine's work counters and the protocol
// ratios derived from them. The useful ratio is only defined for an
// optimistic engine.
func (s sample) addCounters(rs *stats.RunStats, optimistic bool) {
	t := rs.Total()
	s["kernel.evaluations"] = float64(t.Evaluations)
	s["kernel.events_applied"] = float64(t.EventsApplied)
	s["eventq.events_scheduled"] = float64(t.EventsScheduled)
	s["mpsc.messages_sent"] = float64(t.MessagesSent)
	s["cmb.nulls_sent"] = float64(t.NullsSent)
	if t.MessagesSent > 0 {
		s["cmb.null_ratio"] = float64(t.NullsSent) / float64(t.MessagesSent)
	}
	s["timewarp.rollbacks"] = float64(t.Rollbacks)
	s["timewarp.events_rolled_back"] = float64(t.EventsRolledBack)
	if optimistic && t.EventsApplied > 0 {
		s["timewarp.useful_ratio"] = float64(t.EventsApplied-t.EventsRolledBack) / float64(t.EventsApplied)
	}
	s["timewarp.gvt_rounds"] = float64(rs.GVTRounds)
	s["sync.barriers"] = float64(rs.Barriers)
}

// addDistGauges records the dist hub's wire, checkpoint and GVT gauges.
func (s sample) addDistGauges(g map[string]float64, events uint64) {
	s["wire.mesh_bytes"] = g["mesh_bytes"]
	s["wire.hub_bytes"] = g["hub_bytes"]
	if events > 0 {
		s["wire.bytes_per_event"] = (g["mesh_bytes"] + g["hub_bytes"]) / float64(events)
	}
	s["ckpt.full_bytes"] = g["ckpt_full_bytes"]
	s["ckpt.delta_bytes"] = g["ckpt_delta_bytes"]
	s["ckpt.delta_ratio"] = g["delta_ratio"]
	s["dist.gvt_rounds"] = g["dist_gvt_rounds"]
	s["dist.reconnects"] = g["dist_reconnects"]
}

// phaseMetrics names the per-layer metric each trace phase sums into.
// Spans are summed across LP timelines, so they add up LP-seconds.
var phaseMetrics = map[string]string{
	"evaluate": "kernel.evaluate_s",
	"apply":    "kernel.evaluate_s",
	"block":    "mpsc.block_s",
	"rollback": "timewarp.rollback_s",
	"gvt":      "timewarp.gvt_s",
	"barrier":  "sync.barrier_s",
}

// addSpans parses the tracer's Chrome trace_event export and sums span
// durations per phase.
func (s sample) addSpans(tr *trace.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("parse trace: %w", err)
	}
	for _, ev := range doc.TraceEvents {
		if m, ok := phaseMetrics[ev.Name]; ok && ev.Ph == "X" {
			s[m] += ev.Dur / 1e6
		}
	}
	s["trace.dropped_spans"] = float64(tr.Dropped())
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// medians reduces samples to the per-metric median over the samples that
// hold the metric.
func medians(ss []sample) sample {
	vals := map[string][]float64{}
	for _, s := range ss {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := sample{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// mean returns the mean of metric name over the samples (0 for none).
func mean(ss []sample, name string) float64 {
	if len(ss) == 0 {
		return 0
	}
	var sum float64
	for _, s := range ss {
		sum += s[name]
	}
	return sum / float64(len(ss))
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) so
// the reported peak covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
