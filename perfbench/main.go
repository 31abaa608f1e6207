// Command perfbench is tilevm's benchmark. It runs one named workload
// per process through the program's public functions (and, for the
// daemon, its HTTP API), checks every guest result against the same
// image executed natively on the host CPU, and prints one JSON line:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are every end-to-end metric; with -trace 1
// it also times every call into each layer, writes the spans, and
// prints every per-layer metric instead. README.md lists the workloads
// and what each metric measures on each.
//
//	go build -o perfbench . && ./perfbench -workload spec_solo -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are one run's settings.
type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	outDir    string  // native ELFs and span files
	tilevmd   string  // daemon binary for daemon_open
	specSeeds []int64 // extra profile seeds for spec_solo
}

// workloads maps each workload name to its runner. A runner returns an
// error only when the benchmark itself cannot run (no result is
// printed); wrong program outputs are recorded in the run instead.
var workloads = map[string]func(o options, r *run, tr *tracer) error{
	"spec_solo":     runSpecSolo,
	"figures_quick": runFiguresQuick,
	"fleet_oversub": runFleetOversub,
	"daemon_open":   runDaemonOpen,
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		o         options
		seconds   = flag.Int("seconds", 10, "measure whole rounds until this many seconds have passed")
		trace     = flag.Int("trace", 0, "1: time each call into the program's layers and print per-layer metrics")
		specSeeds = flag.String("spec-seeds", "1001,2002", "the further seeds each SpecInt profile runs at in spec_solo, besides its own")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for native guest binaries and span files")
	flag.StringVar(&o.tilevmd, "tilevmd", ".bench_build/tilevmd", "tilevmd binary (daemon_open)")
	flag.Parse()

	if workloads[o.workload] == nil {
		return fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	o.seconds = time.Duration(*seconds) * time.Second
	o.traced = *trace == 1
	for _, f := range strings.Split(*specSeeds, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad -spec-seeds %q: %w", *specSeeds, err)
		}
		o.specSeeds = append(o.specSeeds, s)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}

	r := newRun()
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	if err := workloads[o.workload](o, r, tr); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.traced {
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG:", p)
	}
	res, err := r.result(o.traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rounds runs whole rounds until o.seconds have passed since the first
// began, and at least one. Each round starts from a collected heap, so
// garbage left by the one before it neither lengthens its times nor
// raises its peak resident set.
func rounds(o options, round func(i int) error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		runtime.GC()
		t := time.Now()
		if err := round(i); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d took %.3fs\n", i, time.Since(t).Seconds())
	}
	return nil
}

// setupRepeats is how often a set-up is repeated; one set-up takes
// milliseconds, too short to time steadily on its own.
const setupRepeats = 15

// timeSetup runs f setupRepeats times, each from a collected heap, and
// returns the median duration.
func timeSetup(f func() error) (time.Duration, error) {
	ds := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// peakRSSMB is this process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
