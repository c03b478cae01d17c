package main

import (
	"fmt"
	"os"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// runDist executes the distributed path: a coordinator in this process,
// worker shards over sockets (in-process goroutines by default, real
// parsimd-worker processes with -dist-exec), checkpointed recovery, and
// optional seeded network chaos. c is the circuit the hub resolves from
// the same recipe; it names the outputs and the VCD nets.
func runDist(c *circuit.Circuit, opts dist.Options, vcdPath, metricsOut string, quiet bool) {
	reg := metrics.NewRegistry(opts.Engine + "-dist")
	opts.Metrics = reg
	res, err := dist.Run(opts)
	fatal(err)

	fmt.Printf("engine=%s-dist shards=%d mode=%s attempts=%d recoveries=%d fallbacks=%d events=%d end=%d\n",
		opts.Engine, res.Shards, res.FinalMode, res.Attempts, res.Recoveries, res.Fallbacks,
		res.Events, res.EndTime)
	if res.Degraded != "" && !quiet {
		fmt.Printf("dist: degraded after shard loss: %s\n", res.Degraded)
	}
	if !quiet {
		fmt.Printf("final outputs:")
		for _, o := range c.Outputs {
			fmt.Printf(" %s=%v", c.Gate(o).Name, res.Values[o])
		}
		fmt.Println()
	}

	if vcdPath != "" {
		f, err := os.Create(vcdPath)
		fatal(err)
		defer f.Close()
		fatal(trace.WriteVCD(f, c, c.Outputs, res.Waveform, "1ns"))
		if !quiet {
			fmt.Printf("wrote %d waveform samples to %s\n", len(res.Waveform), vcdPath)
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		fatal(err)
		defer f.Close()
		fatal(reg.Report().WriteJSON(f))
	}
}
