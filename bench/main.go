// Command rewire-bench is the repository benchmark: it measures compile
// latency, mapping quality and serving latency end to end through the
// public rewire API and the rewire-serve daemon, on four seeded
// workloads, and checks every output. See README.md.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	rewire-bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	rewire-bench all [-seed <n>] [-trace <0|1>] [-out <dir>]
//	rewire-bench compare <parent runs> <change runs>
//
// A run prints a readable table and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics of BENCHMARK.json with -trace 0, its per-layer metrics with
// -trace 1. It exits non-zero when any check fails.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	serveBin string
	specPath string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("rewire-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: orders the compiles and draws which entries serve-mix's cache reads ask for")
	fs.IntVar(&o.seconds, "seconds", 0, "how long one run measures (0: BENCHMARK.json's run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1 for the traced run, which prints the per-layer metrics")
	fs.StringVar(&o.serveBin, "serve-bin", ".bench_build/rewire-serve", "rewire-serve binary serve-mix starts")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark description holding the metric catalog")
	fs.StringVar(&o.out, "out", "", "with all: directory to save each workload's output in")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.seconds == 0 {
		o.seconds = sp.RunSeconds
	}
	rest := fs.Args()
	switch {
	case len(rest) == 0:
		return runWorkload(o, sp, stdout, stderr)
	case rest[0] == "compare" && len(rest) == 3:
		return compare(sp, rest[1], rest[2], stdout, stderr)
	case rest[0] == "all":
		if err := fs.Parse(rest[1:]); err != nil || fs.NArg() > 0 {
			fmt.Fprintln(stderr, "usage: rewire-bench all [-seed n] [-seconds s] [-trace 0|1] [-out dir]")
			return 2
		}
		return runAll(o, sp, stdout, stderr)
	}
	fmt.Fprintln(stderr, "usage: rewire-bench -workload <name> ... | all ... | compare <parent runs> <change runs>")
	return 2
}

// runWorkload runs one workload and prints its result.
func runWorkload(o options, sp *spec, stdout, stderr io.Writer) int {
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "-trace %d: want 0 or 1\n", o.trace)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "-seconds %d: want at least 1\n", o.seconds)
		return 2
	}
	traced := o.trace == 1
	var (
		rep *report
		err error
	)
	switch o.workload {
	case workloadServe:
		rep, err = runServe(o.serveBin, o.seed, o.seconds, traced)
	default:
		w, ok := findCompileWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", o.workload)
			return 2
		}
		rep, err = runCompile(w, o.seed, o.seconds, traced)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "# rewire-bench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	catalog := sp.EndToEnd
	if traced {
		catalog = sp.PerLayer
	}
	for i, p := range rep.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "invalid: ... and %d more\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintln(stderr, "invalid:", p)
	}
	if err := rep.emit(stdout, catalog); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", o.workload, err)
		return 1
	}
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

func findCompileWorkload(name string) (compileWorkload, bool) {
	for _, w := range compileWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return compileWorkload{}, false
}

// runAll runs every workload of BENCHMARK.json in its own process, so
// each compile workload's peak memory is its own, and saves each
// output under o.out when set.
func runAll(o options, sp *spec, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	code := 0
	for _, w := range sp.Workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, "-serve-bin", o.serveBin, "-spec", o.specPath, "-workload", w.Name,
			"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace))
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.Name, err)
			code = 1
		}
		if o.out != "" {
			name := fmt.Sprintf("%s-seed%d-trace%d.txt", w.Name, o.seed, o.trace)
			if err := os.WriteFile(filepath.Join(o.out, name), buf.Bytes(), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				code = 1
			}
		}
	}
	return code
}
