package gen

import (
	"fmt"
	"os"
	"regexp"
	"strconv"

	"repro/internal/bench"
	"repro/internal/circuit"
)

// nameRe splits a circuit family name from its size parameter.
var nameRe = regexp.MustCompile(`^([a-z]+)(\d+)$`)

// ByName builds a circuit from a compact textual name, the vocabulary the
// command-line tools share: the embedded ISCAS netlists ("c17", "s27") or
// a parameterized generator ("mul16", "ripple32", "cla24", "lfsr16",
// "counter12", "shift64", "dag5000", "seq2000").
func ByName(name string, delays DelaySpec, seed int64) (*circuit.Circuit, error) {
	switch name {
	case "c17":
		return bench.MustC17(), nil
	case "s27":
		return bench.MustS27(), nil
	}
	m := nameRe.FindStringSubmatch(name)
	if m == nil {
		return nil, fmt.Errorf("gen: unknown circuit %q (want c17, s27, or <family><size>)", name)
	}
	n, err := strconv.Atoi(m[2])
	if err != nil {
		return nil, fmt.Errorf("gen: circuit %q: %v", name, err)
	}
	switch m[1] {
	case "mul":
		return ArrayMultiplier(n, delays)
	case "ripple":
		return RippleAdder(n, delays)
	case "cla":
		return CLAAdder(n, delays)
	case "lfsr":
		return LFSR(n, nil, delays)
	case "counter":
		return Counter(n, delays)
	case "shift":
		return ShiftRegister(n, delays)
	case "dag":
		return RandomDAG(RandomConfig{
			Gates: n, Inputs: 8 + n/64, Outputs: 4 + n/128,
			Locality: 0.6, Seed: seed, Delays: delays,
		})
	case "seq":
		return RandomSeq(RandomConfig{
			Gates: n, Inputs: 8 + n/64, Outputs: 4 + n/128,
			Locality: 0.6, Seed: seed, Delays: delays, FFRatio: 0.12,
		})
	}
	return nil, fmt.Errorf("gen: unknown circuit family %q", m[1])
}

// Load resolves a circuit source the way the command-line tools and the
// distributed hub do: the ISCAS .bench file at benchPath when it is
// non-empty, otherwise ByName(name) with unit delays, or with random
// delays in [1,fine] when fine > 0. seed feeds delays and generators.
func Load(benchPath, name string, fine uint64, seed int64) (*circuit.Circuit, error) {
	if benchPath != "" {
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.Read(f)
	}
	delays := Unit
	if fine > 0 {
		delays = Fine(circuit.Tick(fine), seed)
	}
	return ByName(name, delays, seed)
}
