package main

import (
	"fmt"
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// The fleet_oversub input: 24 guests drawn round-robin from six
// profiles onto an 8×8 fabric, which the default carve splits into 8
// slots, so every slot runs three guests in turn.
var fleetProfiles = []string{"164.gzip", "181.mcf", "197.parser", "256.bzip2", "175.vpr", "254.gap"}

const (
	fleetGuests             = 24
	fleetWidth, fleetHeight = 8, 8
)

// fleetRef is the outside reference for one distinct fleet image.
type fleetRef struct {
	native        int32
	stateHash     uint64 // solo core.Run
	insts, cycles uint64 // P3 model
}

func runFleetOversub(o options, r *run, tr *tracer) error {
	var imgs []*guest.Image
	build := func(tr *tracer, parent int) error {
		imgs = imgs[:0]
		for i := 0; i < fleetGuests; i++ {
			name := fleetProfiles[i%len(fleetProfiles)]
			p, ok := workload.ByName(name)
			if !ok {
				return fmt.Errorf("no workload profile %q", name)
			}
			var img *guest.Image
			tr.timed("workload.Profile.Build", parent, func() { img = p.Build() })
			imgs = append(imgs, img)
		}
		return nil
	}
	setup, err := timeSetup(func() error { return build(nil, 0) })
	if err != nil {
		return err
	}

	// References, outside every timed section: the host CPU's exit code,
	// and the guest's state hash when it runs alone and its instruction
	// count and cycles on the P3 model. In the traced run this solo pass
	// is also the layer pass.
	distinct := map[string]*guest.Image{}
	for i, name := range fleetProfiles {
		distinct[name] = imgs[i]
	}
	guests, err := refGuests(distinct, o.outDir+"/native")
	if err != nil {
		return err
	}
	layersID := tr.begin("layers", 0)
	solo := runSolo(guests, inOrder(len(guests)), tr, layersID, func(err error) {
		if err != nil {
			r.problem(err)
		}
	})
	tr.end(layersID, nil)
	refs := map[string]fleetRef{}
	for _, g := range guests {
		if run, ok := solo.runs[g.name]; ok {
			refs[g.name] = fleetRef{native: g.native, stateHash: run.res.StateHash,
				insts: run.p3.Insts, cycles: run.p3.Cycles}
		}
	}
	var insts uint64
	for i := range imgs {
		insts += refs[fleetProfiles[i%len(fleetProfiles)]].insts
	}

	var first *core.FleetResult
	round := func(tr *tracer, parent int) (time.Duration, *core.FleetResult) {
		cfg := core.DefaultConfig()
		cfg.Params.Width, cfg.Params.Height = fleetWidth, fleetHeight
		var (
			res *core.FleetResult
			err error
		)
		wall := tr.timed("core.RunFleet", parent, func() { res, err = core.RunFleet(imgs, cfg, core.FleetConfig{}) })
		if err != nil {
			for range imgs {
				r.op(fmt.Errorf("core.RunFleet: %w", err), false)
			}
			return wall, nil
		}
		checkFleet(res, refs, r)
		if first == nil {
			first = res
		} else if res.Makespan != first.Makespan {
			r.problem(fmt.Errorf("fleet makespan %d, %d in the first round: the fleet is not deterministic", res.Makespan, first.Makespan))
		}
		return wall, res
	}

	if !o.traced {
		var walls, ips []float64
		err := rounds(o, func(int) error {
			wall, _ := round(nil, 0)
			walls = append(walls, wall.Seconds())
			ips = append(ips, float64(insts)/wall.Seconds())
			return nil
		})
		if err != nil {
			return err
		}
		if first == nil {
			return fmt.Errorf("no fleet run finished")
		}
		// Each guest's slowdown as its owner sees it: every guest arrives
		// at cycle 0, so its finish cycle includes its wait for a slot.
		var slowdowns []float64
		for i, g := range first.Guests {
			slowdowns = append(slowdowns, float64(g.Finished)/float64(refs[fleetProfiles[i%len(fleetProfiles)]].cycles))
		}
		r.set("wall_s", median(walls))
		r.set("setup_s", setup.Seconds())
		r.set("peak_rss_mb", peakRSSMB())
		r.set("guest_insts_per_s", median(ips))
		r.set("slowdown_geomean", geomean(slowdowns))
		return nil
	}

	// Traced: an untraced round for the overhead baseline, then the
	// traced round; the per-layer metrics come from the reference pass.
	baseWall, _ := round(nil, 0)
	buildID := tr.begin("setup", 0)
	if err := build(tr, buildID); err != nil {
		return err
	}
	tr.end(buildID, nil)
	roundID := tr.begin("round", 0)
	wall, _ := round(tr, roundID)
	tr.end(roundID, nil)
	r.set("perfbench.trace_overhead_s", (wall - baseWall).Seconds())
	setLayerMetrics(r, tr, guests, solo, buildID, layersID)
	return nil
}

// checkFleet counts each guest as one operation and checks that it
// finished, that its exit code is the host CPU's, and that its final
// state hash equals the hash of the same image run alone: sharing the
// fabric must not change what a guest computes.
func checkFleet(res *core.FleetResult, refs map[string]fleetRef, r *run) {
	for i, g := range res.Guests {
		name := fleetProfiles[i%len(fleetProfiles)]
		ref := refs[name]
		what := fmt.Sprintf("fleet guest %d (%s)", i, name)
		var err error
		switch {
		case g.Status != core.GuestFinished || g.Result == nil:
			err = fmt.Errorf("%s: status %v (%v)", what, g.Status, g.Err)
		case g.StateHash != ref.stateHash:
			err = fmt.Errorf("%s: state hash %#x, %#x when run alone", what, g.StateHash, ref.stateHash)
		default:
			err = checkExit(what, g.ExitCode, ref.native)
		}
		r.op(err, false)
	}
}
