package main

import "fmt"

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports every one of them; README.md says what each means
// on each workload.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"guest_insts_per_s", "1/s", "higher"},
	{"slowdown_geomean", "x", "lower"},
}

// perLayer lists the per-layer metrics in BENCHMARK.json order; the
// module the benchmark calls into prefixes each name. Every workload
// reports every one of them, measured on its own distinct guests.
var perLayer = []metricSpec{
	{"workload.build_s", "s", "lower"},
	{"pentium.run_s", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"core.ns_per_dispatch", "ns", "lower"},
	{"core.cycles", "cycles", "lower"},
	{"translate.translations", "count", "lower"},
	{"translate.useful_ratio", "ratio", "higher"},
	{"translate.demand_misses", "count", "lower"},
	{"translate.opt_us_per_block", "us", "lower"},
	{"translate.tier0_us_per_block", "us", "lower"},
	{"opt.share", "ratio", "lower"},
	{"x86.decode_us_per_block", "us", "lower"},
	{"rawexec.ns_per_guest_inst", "ns", "lower"},
	{"codecache.l1_hit_ratio", "ratio", "higher"},
	{"codecache.l15_hit_ratio", "ratio", "higher"},
	{"codecache.l2_miss_ratio", "ratio", "lower"},
	{"dcache.dl1_miss_ratio", "ratio", "lower"},
	{"mmu.l2d_miss_ratio", "ratio", "lower"},
	{"mmu.tlb_misses", "count", "lower"},
	{"perfbench.trace_overhead_s", "s", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one benchmark run: operation counts, check
// failures, and metric values.
type run struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newRun() *run { return &run{values: map[string]float64{}} }

// op counts one attempted operation; err marks it failed, and a
// failed operation that is not an expected failure is also a wrong
// output.
func (r *run) op(err error, expected bool) {
	r.attempted++
	if err != nil {
		r.failed++
		if !expected {
			r.problem(err)
		}
	}
}

// problem records a wrong program output.
func (r *run) problem(err error) {
	r.problems = append(r.problems, err.Error())
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// result builds the output line, holding every declared metric of the
// chosen mode: the end-to-end metrics, or with traced the per-layer
// ones.
func (r *run) result(traced bool) (*result, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	var missing []string
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok {
			missing = append(missing, s.name)
			continue
		}
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("measured no value for %v", missing)
	}
	return out, nil
}
