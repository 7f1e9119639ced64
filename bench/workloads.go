package main

import (
	"fmt"
	"strings"
	"time"

	"rewire"
)

// budgetPerII is every compile's per-II wall-clock budget, the daemon's
// default -max-time-per-ii. The slowest compile the workloads make takes
// under 5 s for its whole II sweep, so the mappers' work bounds, not the
// clock, end every II attempt, and every result repeats exactly. A
// result the clock decided would not: the repeat checks catch it.
const budgetPerII = 10 * time.Second

// combo is one (kernel, architecture) pair.
type combo struct{ kernel, arch string }

func combos(arch string, kernels ...string) []combo {
	out := make([]combo, len(kernels))
	for i, k := range kernels {
		out[i] = combo{k, arch}
	}
	return out
}

// paper4x4 is the paper's 34 4x4 combos: the evaluation's kernel lists
// for the 4x4 fabric with four, two and one register(s) per PE.
var paper4x4 = concat(
	combos("4x4r4", "atax", "bicg(u)", "cholesky", "crc", "doitgen", "fft", "gemver",
		"gesummv", "gramsch", "lu", "ludcmp", "mvt", "stencil2d", "viterbi"),
	combos("4x4r2", "atax", "cholesky", "doitgen", "fft", "gemm", "gesummv",
		"gramsch", "lu", "ludcmp", "mvt", "spmv", "viterbi"),
	combos("4x4r1", "gramsch", "ludcmp", "lu", "gemver", "cholesky", "gesummv",
		"atax", "bicg(u)"),
)

// paper8x8 is the evaluation's 8x8 four-register list without
// gesummv(u), whose PF* lanes at II 2-3 run into the per-II deadline.
var paper8x8 = combos("8x8r4", "atax", "bicg(u)", "cholesky", "doitgen", "fft", "gemm",
	"gemver", "gramsch", "lu", "ludcmp", "spmv", "susan")

func concat(lists ...[]combo) []combo {
	var out []combo
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// newArch builds a preset fabric from its name, e.g. "4x4r2".
func newArch(name string) (*rewire.CGRA, error) {
	var rows, cols, regs int
	if _, err := fmt.Sscanf(strings.ToLower(name), "%dx%dr%d", &rows, &cols, &regs); err != nil {
		return nil, fmt.Errorf("bad arch %q: %v", name, err)
	}
	switch {
	case rows == 4 && cols == 4:
		return rewire.New4x4(regs), nil
	case rows == 8 && cols == 8:
		return rewire.New8x8(regs), nil
	}
	return nil, fmt.Errorf("arch %q is not a preset", name)
}

// compileWorkload is a closed loop of one client calling rewire.Map.
// One pass compiles every combo with every mapper and mapper seed, in
// an order the workload seed shuffles. A run of s seconds makes as many
// passes as fit in s, at least one, counting passSeconds for a pass:
// about what one takes on a two-core x86 container at the baseline
// speed. The run's work depends on its length alone, never on how fast
// the code under test is.
//
// Mapper seeds are fixed, not drawn from the workload seed: between two
// mapper seeds the set's II changes on a third of the combos and its
// compile time by about 20%, which would swamp every bound. Fixed seeds
// make the work of a pass, and so every II and work count, the same in
// every run.
type compileWorkload struct {
	name        string
	mappers     []rewire.MapperName
	combos      []combo
	mapperSeeds []int64
	passSeconds int
	// parallelism is the portfolio lane window (0 for single mappers).
	parallelism int
}

// passes is how many passes a run of the given length makes.
func (w compileWorkload) passes(seconds int) int {
	return max(1, seconds/w.passSeconds)
}

var compileWorkloads = []compileWorkload{
	{
		// The paper's mapper on its register-starved fabrics: the
		// amendment engine (propagate, intersect, placement_enum, verify)
		// does most of the work.
		name: "rewire-4x4", mappers: []rewire.MapperName{rewire.MapperRewire},
		combos: paper4x4, mapperSeeds: []int64{1}, passSeconds: 13,
	},
	{
		// The same inputs with the amendment engine bypassed: PF*'s
		// remap loop and SA's anneal do the work, and SA fails crc and
		// stencil2d on 4x4r4 after bounded work, so a failure path is
		// timed too.
		name: "baselines-4x4", mappers: []rewire.MapperName{rewire.MapperPathFinder, rewire.MapperSA},
		combos: paper4x4, mapperSeeds: []int64{1}, passSeconds: 26,
	},
	{
		// The 64-PE fabric: larger MRRGs, more distance-oracle work,
		// longer routes, and the portfolio's lanes racing on two cores.
		name: "portfolio-8x8", mappers: []rewire.MapperName{rewire.MapperPortfolio},
		combos: paper8x8, mapperSeeds: []int64{1, 2, 3, 4}, passSeconds: 21, parallelism: 2,
	},
}

// serveEntry is one POST /map request body of serve-mix.
type serveEntry struct {
	Kernel string `json:"kernel"`
	Arch   string `json:"arch"`
	Seed   int64  `json:"seed"`
	// TimePerIIMS is part of the result-cache key, so a novel request
	// can repeat a pool entry's (kernel, arch, seed) with a budget no
	// earlier request used: a cache miss whose work is the entry's.
	TimePerIIMS int `json:"time_per_ii_ms"`
}

// serveHot is serve-mix's hot set, warmed during set-up: 16 kernels
// whose Rewire compiles take 20-300 ms, so set-up stays short.
var serveHot = []serveEntry{
	{Kernel: "syrk", Arch: "4x4r2", Seed: 1}, {Kernel: "ludcmp", Arch: "4x4r2", Seed: 1},
	{Kernel: "viterbi", Arch: "4x4r4", Seed: 1}, {Kernel: "gesummv", Arch: "4x4r2", Seed: 1},
	{Kernel: "trmm", Arch: "4x4r4", Seed: 1}, {Kernel: "doitgen", Arch: "4x4r2", Seed: 1},
	{Kernel: "jacobi1d", Arch: "4x4r4", Seed: 1}, {Kernel: "adpcm", Arch: "4x4r2", Seed: 1},
	{Kernel: "spmv", Arch: "4x4r4", Seed: 1}, {Kernel: "lu", Arch: "4x4r2", Seed: 1},
	{Kernel: "gemver", Arch: "4x4r4", Seed: 1}, {Kernel: "seidel", Arch: "4x4r2", Seed: 1},
	{Kernel: "gemm", Arch: "4x4r2", Seed: 1}, {Kernel: "kmp", Arch: "4x4r2", Seed: 1},
	{Kernel: "bicg(u)", Arch: "4x4r2", Seed: 1}, {Kernel: "cholesky", Arch: "4x4r2", Seed: 1},
}

// servePool is serve-mix's novel-request pool: 16 (kernel, 4x4 arch,
// seed) entries, none in the hot set, whose Rewire compiles take 20-360
// ms (150 ms on average) on a two-core x86 container. With six entries
// of 300-380 ms instead (200 ms on average) both worker slots were busy
// so often that the typical cache read queued too: its time rose from
// 1.2 to 1.2-7.4 ms between seeds. Novel requests cycle through the
// pool in this order, which alternates heavy and light compiles,
// whatever the seed: every run of a given length sends the same
// compiles in the same sequence, and the daemon keeps the traces of its
// last 64 runs, so the sequence, not only the multiset, can set its
// peak memory.
var servePool = []serveEntry{
	{Kernel: "susan", Arch: "4x4r2", Seed: 1}, {Kernel: "cholesky", Arch: "4x4r4", Seed: 3},
	{Kernel: "fft", Arch: "4x4r1", Seed: 3}, {Kernel: "viterbi", Arch: "4x4r1", Seed: 1},
	{Kernel: "crc", Arch: "4x4r1", Seed: 3}, {Kernel: "gesummv", Arch: "4x4r1", Seed: 1},
	{Kernel: "atax", Arch: "4x4r1", Seed: 3}, {Kernel: "relax", Arch: "4x4r1", Seed: 3},
	{Kernel: "md", Arch: "4x4r2", Seed: 2}, {Kernel: "bicg(u)", Arch: "4x4r1", Seed: 3},
	{Kernel: "fir5", Arch: "4x4r1", Seed: 3}, {Kernel: "adpcm", Arch: "4x4r1", Seed: 1},
	{Kernel: "sobel", Arch: "4x4r2", Seed: 3}, {Kernel: "seidel", Arch: "4x4r2", Seed: 2},
	{Kernel: "kmp", Arch: "4x4r1", Seed: 3}, {Kernel: "gemver", Arch: "4x4r1", Seed: 1},
}

// serve-mix traffic: an open loop of Poisson arrivals at serveRate
// requests per second, of which serveNovelShare are novel (cache misses
// and cold compiles) and the rest repeat the hot set (cache reads), from
// serveConns connections to a daemon with serveWorkers mapping slots.
// Every run replays one draw of the arrivals (see serveTraceSeed). The
// mix is synthetic: no recorded rewire-serve traffic backs the rate, the
// share or the size of the hot set. At the benchmark's 20 s it is 800
// requests, 64 of them novel, so every pool entry is compiled four
// times.
const (
	serveRate       = 40
	serveNovelShare = 0.08
	serveConns      = 2
	serveWorkers    = 2
	serveSetups     = 3
)

const workloadServe = "serve-mix"
