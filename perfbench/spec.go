package main

import (
	"fmt"
	"math/rand"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
	"tilevm/internal/x86"
)

// specProfiles returns the 11 SpecInt profiles, each at its own seed
// and at every extra seed: 33 distinct guests with the default seeds.
func specProfiles(extra []int64) []workload.Profile {
	var out []workload.Profile
	for _, p := range workload.Profiles() {
		out = append(out, p)
		for _, s := range extra {
			q := p
			q.Seed = s
			q.Name = fmt.Sprintf("%s@%d", p.Name, s)
			out = append(out, q)
		}
	}
	return out
}

// cornerGuests are short guests that use group-1 opcode 0x83 (imm8,
// sign-extended to the operand size) with a negative immediate. Each
// leaves a result whose low byte differs between a sign-extended and a
// zero-extended immediate, and exits with that byte.
func cornerGuests() map[string]*guest.Image {
	reg := func(r x86.Reg) x86.Operand { return x86.RegOp(r, 4) }
	imm := func(v int32) x86.Operand { return x86.ImmOp(v, 4) }
	build := func(body func(a *x86.Asm)) *guest.Image {
		a := x86.NewAsm(guest.DefaultCodeBase)
		body(a)
		a.ALU(x86.AND, reg(x86.EBX), imm(0xff))
		a.MovRegImm(x86.EAX, 1)
		a.Int(0x80)
		return &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
	}
	return map[string]*guest.Image{
		"corner-and": build(func(a *x86.Asm) { // 0x1234 & -16 = 0x1230; >>4 = 0x123
			a.MovRegImm(x86.EBX, 0x1234)
			a.ALU(x86.AND, reg(x86.EBX), imm(-16))
			a.ShiftImm(x86.SHR, reg(x86.EBX), 4)
		}),
		"corner-add": build(func(a *x86.Asm) { // 0x1000 - 4 = 0xffc; >>8 = 0x0f
			a.MovRegImm(x86.EBX, 0x1000)
			a.ALU(x86.ADD, reg(x86.EBX), imm(-4))
			a.ShiftImm(x86.SHR, reg(x86.EBX), 8)
		}),
		"corner-sub": build(func(a *x86.Asm) { // 0x100 + 8 = 0x108; >>8 = 1
			a.MovRegImm(x86.EBX, 0x100)
			a.ALU(x86.SUB, reg(x86.EBX), imm(-8))
			a.ShiftImm(x86.SHR, reg(x86.EBX), 8)
		}),
		"corner-cmp": build(func(a *x86.Asm) { // -4 == -4: exit 1
			a.MovRegImm(x86.ECX, 0xfffffffc)
			a.MovRegImm(x86.EBX, 1)
			a.ALU(x86.CMP, reg(x86.ECX), imm(-4))
			a.Jcc(x86.CondE, "done")
			a.MovRegImm(x86.EBX, 2)
			a.Label("done")
		}),
	}
}

func runSpecSolo(o options, r *run, tr *tracer) error {
	profs := specProfiles(o.specSeeds)
	imgs := map[string]*guest.Image{}
	build := func(tr *tracer, parent int) {
		for _, p := range profs {
			tr.timed("workload.Profile.Build", parent, func() { imgs[p.Name] = p.Build() })
		}
	}
	setup, err := timeSetup(func() error { build(nil, 0); return nil })
	if err != nil {
		return err
	}
	guests, err := refGuests(imgs, o.outDir+"/native")
	if err != nil {
		return err
	}
	corners := cornerGuests()
	cornerNatives, err := nativeRefs(corners, o.outDir+"/native")
	if err != nil {
		return err
	}

	// A round runs every SpecInt guest once, in a seeded order, then the
	// corner guests.
	rng := rand.New(rand.NewSource(o.seed))
	var first *soloPass
	round := func(tr *tracer, parent int) *soloPass {
		sp := runSolo(guests, rng.Perm(len(guests)), tr, parent, func(err error) { r.op(err, false) })
		specCorners(corners, cornerNatives, r)
		if first == nil {
			first = sp
			return sp
		}
		for name, run := range sp.runs {
			if c, c0 := run.res.Cycles, first.runs[name].res; c0 != nil && c != c0.Cycles {
				r.problem(fmt.Errorf("%s: %d cycles, %d in the first round: the simulation is not deterministic", name, c, c0.Cycles))
			}
		}
		return sp
	}

	if !o.traced {
		var walls, ips []float64
		err = rounds(o, func(int) error {
			sp := round(nil, 0)
			walls = append(walls, sp.wall.Seconds())
			ips = append(ips, float64(sp.insts)/sp.coreTime.Seconds())
			return nil
		})
		if err != nil {
			return err
		}
		r.set("wall_s", median(walls))
		r.set("setup_s", setup.Seconds())
		r.set("peak_rss_mb", peakRSSMB())
		r.set("guest_insts_per_s", median(ips))
		r.set("slowdown_geomean", geomean(first.slowdowns))
		return nil
	}

	// Traced: one untraced round for the overhead baseline, then the
	// traced round, whose solo runs are the layer pass.
	base := round(nil, 0)
	buildID := tr.begin("setup", 0)
	build(tr, buildID)
	tr.end(buildID, nil)
	roundID := tr.begin("round", 0)
	sp := round(tr, roundID)
	tr.end(roundID, nil)
	setLayerMetrics(r, tr, guests, sp, buildID, roundID)
	r.set("perfbench.trace_overhead_s", (sp.wall - base.wall).Seconds())
	return nil
}

// specCorners runs the 0x83 corner guests; a mismatch with the host
// CPU is the known decoder fault, counted as a failed operation.
func specCorners(corners map[string]*guest.Image, natives map[string]int32, r *run) {
	for _, name := range sortedKeys(corners) {
		res, err := core.Run(corners[name], core.DefaultConfig())
		if err == nil {
			err = checkExit(name+" under core.Run", res.ExitCode, natives[name])
		}
		r.op(err, true)
	}
}
