// Command flowbench is the repository's benchmark: it times the integrated
// placement and skew flow (core.Run), incremental ECO edits served by
// serve.Server, and every solver layer beneath them, on seeded synthetic
// workloads, and checks every output it times.
//
//	flowbench --workload table2 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with telemetry
// off; with --trace 1 the per-layer metrics of a traced run. Either way the
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rotaryclk/internal/obs"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"table2":    func(o options) (*report, error) { return runFlowWorkload(table2Cases(o.Seed), o) },
	"ilp-ws":    func(o options) (*report, error) { return runFlowWorkload(ilpCases(o.Seed), o) },
	"eco-serve": runECOWorkload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with telemetry off; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "flowbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// End-to-end numbers are measured with the global registry disarmed;
	// a traced run hands registries to the calls it traces explicitly.
	obs.Disable()

	o := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Log: stderr}
	rep, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "flowbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	if err := rep.write(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "flowbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuSeconds is the CPU time (user plus system) the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return -1
			}
			return kb / 1024
		}
	}
	return -1
}
