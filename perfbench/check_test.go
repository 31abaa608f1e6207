package main

import (
	"strings"
	"testing"

	"tilevm/internal/bench"
)

func TestCheckExitRejectsWrongCode(t *testing.T) {
	if err := checkExit("g", 35, 35); err != nil {
		t.Errorf("equal exit codes rejected: %v", err)
	}
	if err := checkExit("g", 3, 35); err == nil {
		t.Error("exit code 3 against native 35 accepted")
	}
	// Linux keeps the low byte of the exit(2) argument.
	if err := checkExit("g", 0x123, 0x23); err != nil {
		t.Errorf("exit 0x123 against native 0x23 rejected: %v", err)
	}
}

// goodFigures returns figures over two benchmarks that satisfy every
// property checkFigures tests.
func goodFigures() (map[int]*bench.Figure, *bench.Intrinsics) {
	fig := func(n int, series ...bench.Series) *bench.Figure {
		return &bench.Figure{Name: "Figure " + string(rune('0'+n)), Benchmarks: []string{"a", "b"}, Series: series}
	}
	s := func(label string, a, b float64) bench.Series {
		return bench.Series{Label: label, Values: []float64{a, b}}
	}
	figs := map[int]*bench.Figure{
		4: fig(4, s("no L1.5", 9, 30), s("128KB 2 banks", 8, 20)),
		5: fig(5, s("1 conservative", 12, 60), s("1 speculative", 10, 50), s("6 speculative", 8, 20)),
		7: fig(7, s("1 conservative", 0.5, 0.9), s("1 speculative", 0.3, 0.4), s("6 speculative", 0.1, 0.2)),
		8: fig(8, s("without optimization", 15, 40), s("with optimization", 8, 30)),
		9: fig(9, s("1 mem / 9 trans", 9, 25), s("morph thresh 5", 8, 24)),
	}
	f11 := &bench.Intrinsics{Rows: []bench.IntrinsicsRow{
		{Name: "L1 cache hit", MeasuredLat: 6}, {Name: "L2 cache hit", MeasuredLat: 80}, {Name: "L2 cache miss", MeasuredLat: 150},
	}}
	return figs, f11
}

func TestCheckFiguresAcceptsGoodFigures(t *testing.T) {
	figs, f11 := goodFigures()
	if errs := checkFigures(figs, f11); len(errs) != 0 {
		t.Errorf("good figures rejected: %v", errs)
	}
	if got := len(slowdownCells(figs)); got != 2*(2+3+2+2) {
		t.Errorf("slowdownCells: %d cells, want 18", got)
	}
}

func TestCheckFiguresRejectsViolations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		break_ func(map[int]*bench.Figure, *bench.Intrinsics)
		want   string
	}{
		{"slowdown not above 1", func(f map[int]*bench.Figure, _ *bench.Intrinsics) { f[9].Series[1].Values[0] = 0.9 }, "not above 1"},
		{"speculation raises L2 code misses", func(f map[int]*bench.Figure, _ *bench.Intrinsics) { f[7].Series[2].Values[1] = 0.95 }, "miss rate above conservative"},
		{"one speculative slave slower", func(f map[int]*bench.Figure, _ *bench.Intrinsics) { f[5].Series[1].Values[0] = 13 }, "slower than one conservative"},
		{"optimizer raises slowdown", func(f map[int]*bench.Figure, _ *bench.Intrinsics) { f[8].Series[1].Values[1] = 41 }, "optimization raises slowdown"},
		{"L2 hit not above L1 hit", func(_ map[int]*bench.Figure, i *bench.Intrinsics) { i.Rows[1].MeasuredLat = 5 }, "latency"},
		{"L2 miss not above L2 hit", func(_ map[int]*bench.Figure, i *bench.Intrinsics) { i.Rows[2].MeasuredLat = 80 }, "latency"},
		{"figure missing", func(f map[int]*bench.Figure, _ *bench.Intrinsics) { delete(f, 7) }, "missing"},
		{"series missing", func(f map[int]*bench.Figure, _ *bench.Intrinsics) { f[8].Series = f[8].Series[1:] }, "no series"},
	} {
		figs, f11 := goodFigures()
		tc.break_(figs, f11)
		errs := checkFigures(figs, f11)
		found := false
		for _, err := range errs {
			found = found || strings.Contains(err.Error(), tc.want)
		}
		if !found {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, errs, tc.want)
		}
	}
}
