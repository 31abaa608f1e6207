package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// The daemon_open load: one process, one submitting goroutine, at most
// two connections.
const (
	// daemonBurst is submitted back to back; it equals tilevmd's default
	// -queue-cap, so the queue can hold it all and nothing is rejected.
	daemonBurst = 64
	// pollEvery is how often the benchmark lists jobs while it waits;
	// times come from the daemon's own timestamps, not from polls.
	pollEvery = 50 * time.Millisecond
	// daemonWait bounds how long a burst waits for its jobs.
	daemonWait = 120 * time.Second
)

// daemonMix is the job mix and daemonShare each job's share of it.
var (
	daemonMix   = []string{"164.gzip", "256.bzip2", "197.parser", "181.mcf"}
	daemonShare = []float64{0.3, 0.3, 0.2, 0.2}
)

// jobView is the part of tilevmd's job JSON the benchmark reads.
type jobView struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Error      string     `json:"error"`
	FinishedAt *time.Time `json:"finished_at"`
	Result     *struct {
		Cycles   uint64 `json:"cycles"`
		ExitCode int32  `json:"exit_code"`
	} `json:"result"`
}

// daemon is one running tilevmd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	hc   *http.Client
	tr   *tracer
	done chan struct{} // closed when stdout is drained
}

// startDaemon runs tilevmd with its default flags, except for a
// free loopback port, and returns once /readyz answers 200.
func startDaemon(bin string, tr *tracer, parent int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, tr: tr, done: make(chan struct{}),
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
	sc := bufio.NewScanner(out)
	const banner = "tilevmd: listening on "
	for d.base == "" && sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, banner) {
			d.base = "http://" + strings.Fields(strings.TrimPrefix(line, banner))[0]
		}
	}
	go func() {
		io.Copy(io.Discard, out)
		close(d.done)
	}()
	if d.base == "" {
		d.kill()
		return nil, fmt.Errorf("%s printed no listening address", bin)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var code int
		tr.timed("tilevmd.GET /readyz", parent, func() { code, err = d.status("/readyz") })
		if err == nil && code == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("tilevmd not ready after 30s (%d, %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) status(path string) (int, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// stop sends SIGTERM, as an operator would, and waits for the drain.
// It returns the process's peak resident set in MiB.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	timer := time.AfterFunc(90*time.Second, func() { d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.done
	err := d.cmd.Wait()
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("tilevmd did not drain cleanly: %w", err)
	}
	return rss, nil
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
}

// submit posts one job.
func (d *daemon) submit(id, workload string, parent int) error {
	body, _ := json.Marshal(map[string]string{"id": id, "workload": workload})
	var (
		resp *http.Response
		err  error
	)
	d.tr.timed("tilevmd.POST /api/v1/jobs", parent, func() {
		resp, err = d.hc.Post(d.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("job %s: HTTP %d", id, resp.StatusCode)
	}
	return nil
}

// list fetches every retained job.
func (d *daemon) list(parent int) (map[string]jobView, error) {
	var views []jobView
	var err error
	d.tr.timed("tilevmd.GET /api/v1/jobs", parent, func() {
		var resp *http.Response
		if resp, err = d.hc.Get(d.base + "/api/v1/jobs"); err != nil {
			return
		}
		defer resp.Body.Close()
		err = json.NewDecoder(resp.Body).Decode(&views)
	})
	if err != nil {
		return nil, fmt.Errorf("list jobs: %w", err)
	}
	out := make(map[string]jobView, len(views))
	for _, v := range views {
		out[v.ID] = v
	}
	return out, nil
}

// await polls until every id is terminal and returns their views.
func (d *daemon) await(ids []string, parent int) (map[string]jobView, error) {
	deadline := time.Now().Add(daemonWait)
	for {
		all, err := d.list(parent)
		if err != nil {
			return nil, err
		}
		done := 0
		for _, id := range ids {
			if v, ok := all[id]; ok && v.FinishedAt != nil {
				done++
			}
		}
		if done == len(ids) {
			return all, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d of %d jobs still unfinished after %v", len(ids)-done, len(ids), daemonWait)
		}
		time.Sleep(pollEvery)
	}
}

// daemonRound is what one burst measured.
type daemonRound struct {
	wall      time.Duration // first submission to the last finish
	insts     uint64        // guest instructions of the finished jobs
	slowdowns []float64
}

func runDaemonOpen(o options, r *run, tr *tracer) error {
	imgs := map[string]*guest.Image{}
	buildID := tr.begin("setup", 0)
	for _, name := range daemonMix {
		p, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("no workload profile %q", name)
		}
		tr.timed("workload.Profile.Build", buildID, func() { imgs[name] = p.Build() })
	}
	tr.end(buildID, nil)

	// References, outside every timed section: the host CPU's exit code
	// and each job kind's instruction count and cycles on the P3 model.
	// In the traced run this solo pass is also the layer pass.
	guests, err := refGuests(imgs, o.outDir+"/native")
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
	natives := map[string]int32{}
	for _, g := range guests {
		natives[g.name] = g.native
	}

	// Set-up is spawn to the first 200 from /readyz; it is repeated and
	// the median kept, and the last daemon serves the load. The idle
	// daemons before it are killed, not drained, outside the timing:
	// tilevmd answers /readyz before it installs its SIGTERM handler, so
	// a SIGTERM right after readiness can end it with the default action.
	var d *daemon
	var spawns []float64
	spawnID := tr.begin("spawns", 0)
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.kill()
		}
		start := time.Now()
		if d, err = startDaemon(o.tilevmd, tr, spawnID); err != nil {
			return err
		}
		spawns = append(spawns, time.Since(start).Seconds())
	}
	tr.end(spawnID, nil)
	setup := median(spawns)

	var rs []*daemonRound
	burst := func(i int, tr *tracer, parent int) error {
		d.tr = tr
		dr, err := d.burst(i, solo, natives, r, parent)
		if err != nil {
			return err
		}
		rs = append(rs, dr)
		return nil
	}
	var roundErr error
	if !o.traced {
		roundErr = rounds(o, func(i int) error { return burst(i, nil, 0) })
	} else if roundErr = burst(0, nil, 0); roundErr == nil {
		roundID := tr.begin("round", 0)
		roundErr = burst(1, tr, roundID)
		tr.end(roundID, nil)
	}
	rss, stopErr := d.stop()
	if err := firstErr(roundErr, stopErr); err != nil {
		return err
	}

	if o.traced {
		r.set("perfbench.trace_overhead_s", (rs[1].wall - rs[0].wall).Seconds())
		setLayerMetrics(r, tr, guests, solo, buildID, layersID)
		return nil
	}
	var walls, ips []float64
	for _, dr := range rs {
		walls = append(walls, dr.wall.Seconds())
		ips = append(ips, float64(dr.insts)/dr.wall.Seconds())
	}
	r.set("wall_s", median(walls))
	r.set("setup_s", setup)
	r.set("peak_rss_mb", rss)
	r.set("guest_insts_per_s", median(ips))
	r.set("slowdown_geomean", geomean(rs[0].slowdowns))
	return nil
}

// picks returns n job names in daemonShare proportions, interleaved:
// each next pick is the kind furthest behind its share. The fixed order
// keeps the offered work, and so the batches, the same on every seed.
func picks(n int) []string {
	out := make([]string, n)
	count := make([]int, len(daemonMix))
	for i := range out {
		best := 0
		for k := range daemonMix {
			if daemonShare[k]*float64(i+1)-float64(count[k]) > daemonShare[best]*float64(i+1)-float64(count[best]) {
				best = k
			}
		}
		count[best]++
		out[i] = daemonMix[best]
	}
	return out
}

// burst submits daemonBurst jobs back to back, waits for them all and
// checks each against the host CPU; each job is one operation. Its
// wall time runs from the first submission to the last finish the
// daemon records.
func (d *daemon) burst(i int, solo *soloPass, natives map[string]int32, r *run, parent int) (*daemonRound, error) {
	dr := &daemonRound{}
	var ids, kinds []string
	start := time.Now()
	for k, kind := range picks(daemonBurst) {
		id := fmt.Sprintf("r%d-burst-%03d", i, k)
		if err := d.submit(id, kind, parent); err != nil {
			r.op(err, false)
			continue
		}
		ids, kinds = append(ids, id), append(kinds, kind)
	}
	views, err := d.await(ids, parent)
	if err != nil {
		return nil, err
	}
	var last time.Time
	for k, id := range ids {
		v, kind := views[id], kinds[k]
		if err := checkJob(id, kind, v, natives[kind]); err != nil {
			r.op(err, false)
			continue
		}
		r.op(nil, false)
		if v.FinishedAt.After(last) {
			last = *v.FinishedAt
		}
		if run, ok := solo.runs[kind]; ok {
			dr.insts += run.p3.Insts
			dr.slowdowns = append(dr.slowdowns, float64(v.Result.Cycles)/float64(run.p3.Cycles))
		}
	}
	dr.wall = last.Sub(start)
	return dr, nil
}

// checkJob checks that a job finished with the host CPU's exit code.
func checkJob(id, kind string, v jobView, native int32) error {
	if v.State != "finished" || v.Result == nil {
		return fmt.Errorf("job %s (%s): %s %s", id, kind, v.State, v.Error)
	}
	return checkExit(fmt.Sprintf("job %s (%s)", id, kind), v.Result.ExitCode, native)
}
