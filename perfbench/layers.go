package main

import (
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/metrics"
	"tilevm/internal/pentium"
)

// refGuest is one distinct guest image with its host-CPU exit code.
type refGuest struct {
	name   string
	img    *guest.Image
	native int32
}

// refGuests builds the reference list for imgs, in name order, running
// each image natively once.
func refGuests(imgs map[string]*guest.Image, dir string) ([]*refGuest, error) {
	natives, err := nativeRefs(imgs, dir)
	if err != nil {
		return nil, err
	}
	var out []*refGuest
	for _, name := range sortedKeys(imgs) {
		out = append(out, &refGuest{name: name, img: imgs[name], native: natives[name]})
	}
	return out, nil
}

// soloRun is one guest run alone through the P3 model and core.Run.
type soloRun struct {
	p3  *pentium.Result
	res *core.Result
}

// soloPass is what one pass of solo runs measured.
type soloPass struct {
	wall, coreTime time.Duration
	insts          uint64 // guest instructions, from the P3 model
	slowdowns      []float64
	runs           map[string]soloRun // the guests that passed their checks
	m              metrics.Set        // summed over those guests
}

// runSolo runs each guest once, in the given order, through the P3
// model and then core.Run, and checks both exit codes against the host
// CPU. Each guest's outcome goes to record (nil when it passed). The
// pass's wall time holds only those calls.
func runSolo(guests []*refGuest, order []int, tr *tracer, parent int, record func(error)) *soloPass {
	sp := &soloPass{runs: map[string]soloRun{}}
	start := time.Now()
	for _, i := range order {
		g := guests[i]
		var (
			run        soloRun
			bErr, rErr error
		)
		tr.timed("pentium.Run", parent, func() {
			run.p3, bErr = pentium.Run(g.img, pentium.DefaultParams(), 0)
		})
		sp.coreTime += tr.timed("core.Run", parent, func() {
			run.res, rErr = core.Run(g.img, core.DefaultConfig())
		})
		err := firstErr(bErr, rErr)
		if err == nil {
			err = firstErr(checkExit(g.name+" on the P3 model", run.p3.ExitCode, g.native),
				checkExit(g.name+" under core.Run", run.res.ExitCode, g.native))
		}
		record(err)
		if err != nil {
			continue
		}
		sp.insts += run.p3.Insts
		sp.slowdowns = append(sp.slowdowns, float64(run.res.Cycles)/float64(run.p3.Cycles))
		sp.runs[g.name] = run
		addMetrics(&sp.m, &run.res.M)
	}
	sp.wall = time.Since(start)
	return sp
}

// inOrder is the identity order over n guests.
func inOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// setLayerMetrics sets every per-layer metric but the trace overhead
// from a traced solo pass over the workload's distinct guests: the
// workload.Profile.Build spans under buildRoot, the pentium.Run and
// core.Run spans under passRoot, the pass's counters, and the
// translate-on-miss probe, which it runs here over the same guests.
func setLayerMetrics(r *run, tr *tracer, guests []*refGuest, sp *soloPass, buildRoot, passRoot int) {
	m := sp.m
	r.set("workload.build_s", tr.total("workload.Profile.Build", buildRoot).Seconds())
	r.set("pentium.run_s", tr.total("pentium.Run", passRoot).Seconds())
	coreRun := tr.total("core.Run", passRoot)
	r.set("core.run_s", coreRun.Seconds())
	r.set("core.ns_per_dispatch", ratio(float64(coreRun.Nanoseconds()), float64(m.BlockDispatches)))
	r.set("core.cycles", float64(m.Cycles))
	r.set("translate.translations", float64(m.Translations))
	r.set("translate.useful_ratio", 1-ratio(float64(m.SpecWasted), float64(m.Translations)))
	r.set("translate.demand_misses", float64(m.DemandMisses))
	r.set("codecache.l1_hit_ratio", ratio(float64(m.L1CHits), float64(m.L1CLookups)))
	r.set("codecache.l15_hit_ratio", ratio(float64(m.L15Hits), float64(m.L15Lookups)))
	r.set("codecache.l2_miss_ratio", ratio(float64(m.L2CMisses), float64(m.L2CAccess)))
	r.set("dcache.dl1_miss_ratio", ratio(float64(m.DL1Misses), float64(m.DL1Accesses)))
	r.set("mmu.l2d_miss_ratio", ratio(float64(m.L2DMisses), float64(m.L2DRequests)))
	r.set("mmu.tlb_misses", float64(m.TLBMisses))

	ps := probeAll(guests, tr, r)
	blocks := float64(ps.blocks)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.set("x86.decode_us_per_block", ratio(us(ps.decode), blocks))
	r.set("translate.opt_us_per_block", ratio(us(ps.opt), blocks))
	r.set("translate.tier0_us_per_block", ratio(us(ps.tier0), blocks))
	r.set("opt.share", 1-ratio(float64(ps.noopt), float64(ps.opt)))
	r.set("rawexec.ns_per_guest_inst", ratio(float64(ps.exec.Nanoseconds()), float64(sp.insts)))
}

// traceLayers is the traced run's layer pass for a workload whose own
// operations are not solo runs: it runs the distinct guests alone under
// the tracer and sets the per-layer metrics from that pass. A wrong
// result here is a wrong output, not one of the workload's operations.
func traceLayers(r *run, tr *tracer, guests []*refGuest, buildRoot int) {
	passID := tr.begin("layers", 0)
	sp := runSolo(guests, inOrder(len(guests)), tr, passID, func(err error) {
		if err != nil {
			r.problem(err)
		}
	})
	tr.end(passID, nil)
	setLayerMetrics(r, tr, guests, sp, buildRoot, passID)
}

// addMetrics sums the counters the per-layer metrics read.
func addMetrics(dst, m *metrics.Set) {
	dst.Cycles += m.Cycles
	dst.BlockDispatches += m.BlockDispatches
	dst.Translations += m.Translations
	dst.SpecWasted += m.SpecWasted
	dst.DemandMisses += m.DemandMisses
	dst.L1CLookups += m.L1CLookups
	dst.L1CHits += m.L1CHits
	dst.L15Lookups += m.L15Lookups
	dst.L15Hits += m.L15Hits
	dst.L2CAccess += m.L2CAccess
	dst.L2CMisses += m.L2CMisses
	dst.DL1Accesses += m.DL1Accesses
	dst.DL1Misses += m.DL1Misses
	dst.L2DRequests += m.L2DRequests
	dst.L2DMisses += m.L2DMisses
	dst.TLBMisses += m.TLBMisses
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
