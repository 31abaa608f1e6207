package main

import (
	"fmt"
	"time"

	"tilevm/internal/guest"
	"tilevm/internal/rawexec"
	"tilevm/internal/translate"
)

// maxProbeBlocks bounds one guest's dispatches in the probe; the
// largest SpecInt guest needs well under a million.
const maxProbeBlocks = 20_000_000

// probeStats sums the translate-on-miss probe's per-call times.
type probeStats struct {
	blocks, execs                   int
	decode, opt, tier0, noopt, exec time.Duration
}

// probeAll runs every guest through the translate-on-miss loop, one
// span per guest, and checks each exit code against the host CPU. The
// probe runs only in the traced run, after the timed rounds, so it
// never inflates an end-to-end time.
func probeAll(guests []*refGuest, tr *tracer, r *run) *probeStats {
	total := &probeStats{}
	probeID := tr.begin("probe", 0)
	defer tr.end(probeID, nil)
	for _, g := range guests {
		var ps probeStats
		id := tr.begin("probe.translate_on_miss", probeID)
		code, err := probeGuest(g.img, &ps)
		tr.end(id, map[string]float64{
			"blocks": float64(ps.blocks), "execs": float64(ps.execs),
			"x86.DiscoverBlock_ns":             float64(ps.decode),
			"translate.TranslateTier_opt_ns":   float64(ps.opt),
			"translate.TranslateTier_tier0_ns": float64(ps.tier0),
			"translate.TranslateTier_noopt_ns": float64(ps.noopt),
			"rawexec.Exec_ns":                  float64(ps.exec),
		})
		if err != nil {
			r.problem(fmt.Errorf("%s in the translate-on-miss probe: %w", g.name, err))
			continue
		}
		if err := checkExit(g.name+" in the translate-on-miss probe", code, g.native); err != nil {
			r.problem(err)
		}
		total.blocks += ps.blocks
		total.execs += ps.execs
		total.decode += ps.decode
		total.opt += ps.opt
		total.tier0 += ps.tier0
		total.noopt += ps.noopt
		total.exec += ps.exec
	}
	return total
}

// probeGuest runs img to exit with a minimal dispatch loop: on a miss
// it decodes the block, translates it at both tiers and without the
// optimizer (timing each call), and caches the optimizing tier's code,
// which the default configuration executes; every dispatch runs the
// cached code with rawexec over flat memory.
func probeGuest(img *guest.Image, ps *probeStats) (int32, error) {
	p := guest.Load(img)
	clk := &rawexec.CountClock{}
	env := rawexec.NewFlatEnv(p, clk)
	cpu := &rawexec.CPU{}
	cpu.LoadGuest(&p.CPU)
	opt := translate.New(translate.Options{Optimize: true})
	noopt := translate.New(translate.Options{})
	cache := map[uint32]*translate.Result{}
	pc := p.PC
	for !p.Kern.Exited {
		if ps.execs >= maxProbeBlocks {
			return 0, fmt.Errorf("no exit after %d dispatches (pc %#x)", ps.execs, pc)
		}
		res, ok := cache[pc]
		if !ok {
			var err error
			t := time.Now()
			if _, err = translate.DiscoverBlock(p.Mem, pc); err != nil {
				return 0, fmt.Errorf("decode %#x: %w", pc, err)
			}
			ps.decode += time.Since(t)
			t = time.Now()
			if res, err = opt.TranslateTier(p.Mem, pc, false); err != nil {
				return 0, fmt.Errorf("translate %#x: %w", pc, err)
			}
			ps.opt += time.Since(t)
			t = time.Now()
			if _, err = opt.TranslateTier(p.Mem, pc, true); err != nil {
				return 0, fmt.Errorf("tier-0 translate %#x: %w", pc, err)
			}
			ps.tier0 += time.Since(t)
			t = time.Now()
			if _, err = noopt.TranslateTier(p.Mem, pc, false); err != nil {
				return 0, fmt.Errorf("unoptimized translate %#x: %w", pc, err)
			}
			ps.noopt += time.Since(t)
			ps.blocks++
			cache[pc] = res
			env.RegisterCodePages(res.GuestAddr, res.GuestLen)
		}
		t := time.Now()
		exit, err := rawexec.Exec(cpu, res.Code, 0, clk, env, 10_000_000)
		ps.exec += time.Since(t)
		ps.execs++
		if err != nil {
			return 0, fmt.Errorf("exec of block %#x: %w", pc, err)
		}
		if env.SMCPending {
			cache = map[uint32]*translate.Result{}
			env.SMCPending = false
		}
		pc = exit.NextPC
	}
	return p.Kern.ExitCode, nil
}
