package main

import (
	"fmt"
	"strings"
	"time"

	"tilevm/internal/bench"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// figureCalls are the public Suite calls figures_quick makes, in order.
var figureCalls = []struct {
	span string
	fig  int // figure number; 0 for Figure 11 and the headline
	call func(s *bench.Suite) (*bench.Figure, error)
}{
	{"bench.Suite.Figure4", 4, (*bench.Suite).Figure4},
	{"bench.Suite.Figure5", 5, (*bench.Suite).Figure5},
	{"bench.Suite.Figure6", 6, (*bench.Suite).Figure6},
	{"bench.Suite.Figure7", 7, (*bench.Suite).Figure7},
	{"bench.Suite.Figure8", 8, (*bench.Suite).Figure8},
	{"bench.Suite.Figure9", 9, (*bench.Suite).Figure9},
	{"bench.Suite.Figure10", 10, (*bench.Suite).Figure10},
}

// figRound is what one figures_quick round measured.
type figRound struct {
	wall     time.Duration
	slowdown float64
	insts    uint64 // guest instructions of the SpecInt runs behind the figures
}

func runFiguresQuick(o options, r *run, tr *tracer) error {
	quick := (&bench.Suite{Quick: true}).Benchmarks()
	imgs := map[string]*guest.Image{}
	build := func(tr *tracer, parent int) error {
		for _, name := range quick {
			p, ok := workload.ByName(name)
			if !ok {
				return fmt.Errorf("no workload profile %q", name)
			}
			tr.timed("workload.Profile.Build", parent, func() { imgs[name] = p.Build() })
		}
		return nil
	}
	setup, err := timeSetup(func() error { return build(nil, 0) })
	if err != nil {
		return err
	}
	guests, err := refGuests(imgs, o.outDir+"/native")
	if err != nil {
		return err
	}
	natives := map[string]int32{}
	for _, g := range guests {
		natives[g.name] = g.native
	}

	var first *figRound
	round := func(tr *tracer, parent int) *figRound {
		fr := figuresRound(quick, natives, r, tr, parent)
		if first == nil {
			first = fr
		} else if fr.slowdown != first.slowdown {
			r.problem(fmt.Errorf("slowdown geomean %v, %v in the first round: the figures are not deterministic", fr.slowdown, first.slowdown))
		}
		return fr
	}

	if !o.traced {
		var walls, ips []float64
		err := rounds(o, func(int) error {
			fr := round(nil, 0)
			walls = append(walls, fr.wall.Seconds())
			ips = append(ips, float64(fr.insts)/fr.wall.Seconds())
			return nil
		})
		if err != nil {
			return err
		}
		r.set("wall_s", median(walls))
		r.set("setup_s", setup.Seconds())
		r.set("peak_rss_mb", peakRSSMB())
		r.set("guest_insts_per_s", median(ips))
		r.set("slowdown_geomean", first.slowdown)
		return nil
	}

	// Traced: an untraced round for the overhead baseline, the traced
	// round (one span per Suite call), then the layer pass over the
	// three guests run alone.
	base := round(nil, 0)
	buildID := tr.begin("setup", 0)
	if err := build(tr, buildID); err != nil {
		return err
	}
	tr.end(buildID, nil)
	roundID := tr.begin("round", 0)
	fr := round(tr, roundID)
	tr.end(roundID, nil)
	r.set("perfbench.trace_overhead_s", (fr.wall - base.wall).Seconds())
	traceLayers(r, tr, guests, buildID)
	return nil
}

// figuresRound regenerates Figures 4-11 and the headline on a fresh
// quick suite (so no run is served from a previous round's cache),
// then checks the figure properties and the guests' exit codes. Every
// Suite.Run already rejects a run whose exit code differs from the P3
// model's, so checking the P3 model's exit code against the host CPU
// covers every run behind the figures.
func figuresRound(quick []string, natives map[string]int32, r *run, tr *tracer, parent int) *figRound {
	s := bench.NewSuite()
	s.Quick = true
	fresh := map[string]int{} // core.Run calls per benchmark
	s.Progress = func(line string) { fresh[strings.Fields(line)[0]]++ }
	figs := map[int]*bench.Figure{}
	var f11 *bench.Intrinsics
	start := time.Now()
	for _, c := range figureCalls {
		var err error
		tr.timed(c.span, parent, func() { figs[c.fig], err = c.call(s) })
		r.op(err, false)
	}
	var err error
	tr.timed("bench.Suite.Figure11", parent, func() { f11, err = s.Figure11() })
	r.op(err, false)
	tr.timed("bench.Suite.Headline", parent, func() { _, err = s.Headline() })
	r.op(err, false)
	fr := &figRound{wall: time.Since(start)}

	for _, err := range checkFigures(figs, f11) {
		r.problem(err)
	}
	fr.slowdown = geomean(slowdownCells(figs))
	for _, name := range quick {
		b, err := s.Baseline(name)
		if err == nil {
			err = checkExit(name+" on the P3 model", b.ExitCode, natives[name])
		}
		if err != nil {
			r.problem(err)
			continue
		}
		fr.insts += uint64(fresh[name]) * b.Insts
	}
	return fr
}
