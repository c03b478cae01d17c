// Command parsimd-worker is one shard of a distributed parsim run. It
// is launched by the coordinator (parsim -dist with -dist-exec), dials
// back over TCP or a unix socket, receives its job (the run's plan and its
// place in the fleet), checks the plan's fingerprint, and simulates
// the LPs its shard owns. It is not meant to be run by hand; a captured
// job can nonetheless be replayed by pointing a worker at a listening
// coordinator.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
)

func main() {
	var (
		network = flag.String("network", "tcp", "coordinator network: tcp or unix")
		addr    = flag.String("addr", "", "coordinator address")
		shard   = flag.Int("shard", -1, "this worker's shard index")
		attempt = flag.Int("attempt", 0, "the coordinator's restart counter")
	)
	flag.Parse()
	if *addr == "" || *shard < 0 {
		fmt.Fprintln(os.Stderr, "parsimd-worker: -addr and -shard are required")
		os.Exit(2)
	}
	w := dist.NewWorker(*network, *addr, *shard, *attempt)
	if err := w.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "parsimd-worker: shard %d: %v\n", *shard, err)
		os.Exit(1)
	}
}
