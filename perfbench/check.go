package main

import (
	"fmt"

	"tilevm/internal/bench"
)

// checkExit compares a simulated guest's exit code with the host
// CPU's. Linux keeps the low byte of the exit(2) argument, so that is
// what both sides are compared on.
func checkExit(what string, got, native int32) error {
	if uint8(got) != uint8(native) {
		return fmt.Errorf("%s: exit code %d, native x86 gives %d", what, got, native)
	}
	return nil
}

// series returns the named series of f.
func series(f *bench.Figure, label string) ([]float64, error) {
	for _, s := range f.Series {
		if s.Label == label {
			if len(s.Values) != len(f.Benchmarks) {
				return nil, fmt.Errorf("%s: series %q has %d values for %d benchmarks",
					f.Name, label, len(s.Values), len(f.Benchmarks))
			}
			return s.Values, nil
		}
	}
	return nil, fmt.Errorf("%s: no series %q", f.Name, label)
}

// slowdownCells returns every slowdown cell of the slowdown figures
// (4, 5, 8 and 9), in figure and series order.
func slowdownCells(figs map[int]*bench.Figure) []float64 {
	var out []float64
	for _, n := range []int{4, 5, 8, 9} {
		if f := figs[n]; f != nil {
			for _, s := range f.Series {
				out = append(out, s.Values...)
			}
		}
	}
	return out
}

// notAbove reports every benchmark where a[i] > b[i].
func notAbove(what string, f *bench.Figure, a, b []float64) []error {
	var errs []error
	for i := range a {
		if a[i] > b[i] {
			errs = append(errs, fmt.Errorf("%s on %s: %.4g > %.4g", what, f.Benchmarks[i], a[i], b[i]))
		}
	}
	return errs
}

// checkFigures tests the properties the paper's method implies,
// independently of today's numbers:
//   - translation on the simulated machine is slower than the P3, so
//     every slowdown cell is above 1;
//   - speculative translation only adds translations ahead of demand,
//     so it never raises the L2 code miss rate (Figure 7) nor, with one
//     slave, the slowdown (Figure 5) against conservative translation;
//   - the optimizer never raises slowdown (Figure 8);
//   - the memory hierarchy's latencies are ordered: L1 hit < L2 hit <
//     L2 miss (Figure 11).
func checkFigures(figs map[int]*bench.Figure, f11 *bench.Intrinsics) []error {
	var errs []error
	for _, n := range []int{4, 5, 7, 8, 9} {
		if figs[n] == nil {
			errs = append(errs, fmt.Errorf("figure %d missing", n))
		}
	}
	if f11 == nil {
		errs = append(errs, fmt.Errorf("figure 11 missing"))
	}
	if len(errs) > 0 {
		return errs
	}
	for _, n := range []int{4, 5, 8, 9} {
		f := figs[n]
		for _, s := range f.Series {
			for i, v := range s.Values {
				if !(v > 1) {
					errs = append(errs, fmt.Errorf("%s %q on %s: slowdown %.4g is not above 1",
						f.Name, s.Label, f.Benchmarks[i], v))
				}
			}
		}
	}

	f7 := figs[7]
	cons7, err := series(f7, "1 conservative")
	if err != nil {
		return append(errs, err)
	}
	for _, s := range f7.Series {
		if s.Label != "1 conservative" {
			what := fmt.Sprintf("%s: %q L2 code miss rate above conservative", f7.Name, s.Label)
			errs = append(errs, notAbove(what, f7, s.Values, cons7)...)
		}
	}

	f5 := figs[5]
	cons5, err := series(f5, "1 conservative")
	if err != nil {
		return append(errs, err)
	}
	spec5, err := series(f5, "1 speculative")
	if err != nil {
		return append(errs, err)
	}
	errs = append(errs, notAbove(f5.Name+": one speculative slave slower than one conservative", f5, spec5, cons5)...)

	f8 := figs[8]
	off, err := series(f8, "without optimization")
	if err != nil {
		return append(errs, err)
	}
	on, err := series(f8, "with optimization")
	if err != nil {
		return append(errs, err)
	}
	errs = append(errs, notAbove(f8.Name+": optimization raises slowdown", f8, on, off)...)

	lat := map[string]float64{}
	for _, row := range f11.Rows {
		lat[row.Name] = row.MeasuredLat
	}
	order := []string{"L1 cache hit", "L2 cache hit", "L2 cache miss"}
	for i, name := range order {
		if _, ok := lat[name]; !ok {
			return append(errs, fmt.Errorf("figure 11: no %q row", name))
		}
		if i > 0 && !(lat[order[i-1]] < lat[name]) {
			errs = append(errs, fmt.Errorf("figure 11: %s latency %.4g not below %s latency %.4g",
				order[i-1], lat[order[i-1]], name, lat[name]))
		}
	}
	return errs
}
