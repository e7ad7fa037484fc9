// Command dftbench is the end-to-end benchmark of dftserved. It starts the
// binary built from this checkout as a child process, sends a fixed,
// seeded request list over HTTP from two closed-loop clients, checks
// every answer and prints one JSON result line:
//
//	bash dftbench/run.sh --workload biquad-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the same list with client spans and then through the library's
// public entry points in-process, and reports per-layer costs and counts.
// See dftbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A run sets the server up setupRepeats times and reports the median
// as setup_s. A bare server start is a few ms, so each set-up also runs
// the workload's whole warm-up or prefill list. setupsBefore of them
// come before the timed phase, the last of which serves it, and the rest
// after it, so the median draws on more than one of the host's speed
// phases.
const (
	setupRepeats = 5
	setupsBefore = 3
)

func main() {
	var (
		root     = flag.String("root", ".", "checkout root; the server binary is .bench_build/dftserved under it")
		name     = flag.String("workload", "", "biquad-mix, cascade-evaluate or store-churn")
		seed     = flag.Int64("seed", 1, "seed of the request list")
		seconds  = flag.Int("seconds", 10, "nominal run length; fixes the request count, not a time box")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds %d: want at least 1", *seconds))
	}
	w, err := newWorkload(*name, *seed, *seconds)
	if err != nil {
		fail(err)
	}
	b := &bench{
		w:    w,
		seed: *seed,
		bin:  filepath.Join(*root, ".bench_build", "dftserved"),
		work: filepath.Join(*root, ".bench_build", "run", w.name),
	}
	if err := os.RemoveAll(b.work); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fail(err)
	}
	var res *result
	if *traceArg == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dftbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w    *workload
	seed int64
	bin  string
	work string
}

// setUp starts a fresh server (with a fresh, filler-seeded store for a
// disk-store workload) and runs the set-up list through it. It returns
// the server, the set-up payloads and the time from exec to the last
// set-up reply.
func (b *bench) setUp(k int) (*server, [][]byte, time.Duration, error) {
	storeDir := ""
	if b.w.store == "fs" {
		storeDir = filepath.Join(b.work, fmt.Sprintf("store-%d", k))
		if err := writeFillers(storeDir, b.w.fillers); err != nil {
			return nil, nil, 0, err
		}
	}
	t0 := time.Now()
	srv, err := startServer(b.bin, storeDir, filepath.Join(b.work, fmt.Sprintf("server-%d.log", k)))
	if err != nil {
		return nil, nil, 0, err
	}
	outs, _ := load(srv.base, b.w.setup, nil, false)
	dur := time.Since(t0)
	payloads := make([][]byte, len(outs))
	for i, o := range outs {
		if !o.ok {
			srv.stop()
			return nil, nil, 0, fmt.Errorf("set-up request %d (%s): %v", i, b.w.tmpls[b.w.setup[i].tmpl], o.err)
		}
		payloads[i] = o.payload
	}
	return srv, payloads, dur, nil
}

// setUpOnly sets a server up and stops it, returning the set-up time.
func (b *bench) setUpOnly(k int) (float64, error) {
	srv, _, dur, err := b.setUp(k)
	if err != nil {
		return 0, err
	}
	srv.stop()
	return dur.Seconds(), nil
}

// wanted maps each timed request that resubmits a hot key to the payload
// that key returned during set-up.
func (b *bench) wanted(prefill [][]byte) [][]byte {
	want := make([][]byte, len(b.w.timed))
	for i, r := range b.w.timed {
		if r.hot >= 0 {
			want[i] = prefill[r.hot]
		}
	}
	return want
}

// phase is the timed list run once through a closed loop, with its wall
// time and the server's CPU time over it.
type phase struct {
	outs []outcome
	wall time.Duration
	cpu  time.Duration
}

func (b *bench) runTimed(srv *server, want [][]byte, traced bool) (*phase, error) {
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	outs, wall := load(srv.base, b.w.timed, want, traced)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	return &phase{outs: outs, wall: wall, cpu: cpu1 - cpu0}, nil
}

// phaseStats are the figures of a whole timed phase.
type phaseStats struct {
	correct                   int
	jobsPerS, p50, p90, cpuMS float64
}

// stats computes the throughput of correct jobs over the phase's wall
// time, latency percentiles over every request (a failed job counts as
// missing any latency limit) and server CPU per job; bad marks requests
// that failed verification.
func (p *phase) stats(bad []bool) phaseStats {
	var st phaseStats
	lat := make([]float64, len(p.outs))
	for i, o := range p.outs {
		if o.ok && !bad[i] {
			st.correct++
			lat[i] = ms(o.latency)
			continue
		}
		lat[i] = math.Inf(1)
		if o.err != nil {
			fmt.Printf("dftbench: request %d failed: %v\n", i, o.err)
		}
	}
	st.jobsPerS = float64(st.correct) / p.wall.Seconds()
	st.p50 = quantile(lat, 0.5)
	st.p90 = quantile(lat, 0.9)
	st.cpuMS = ms(p.cpu) / float64(len(p.outs))
	return st
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (*result, error) {
	refBefore := hostRef()
	var setups []float64
	for k := 0; k < setupsBefore-1; k++ {
		t, err := b.setUpOnly(k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	srv, prefill, dur, err := b.setUp(setupsBefore - 1)
	if err != nil {
		return nil, err
	}
	setups = append(setups, dur.Seconds())
	r, err := b.runTimed(srv, b.wanted(prefill), false)
	if err != nil {
		srv.stop()
		return nil, err
	}
	rss, err := srv.peakRSS()
	srv.stop()
	if err != nil {
		return nil, err
	}
	for k := setupsBefore; k < setupRepeats; k++ {
		t, err := b.setUpOnly(k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	setupS := quantile(setups, 0.5)
	refAfter := hostRef()

	bad, err := b.verify(r.outs, prefill)
	if err != nil {
		return nil, err
	}
	st := r.stats(bad)
	n := len(r.outs)
	fmt.Printf("dftbench: workload=%s seed=%d jobs=%d correct=%d setup_s=%.4f host.ref_ms=%.3f,%.3f\n",
		b.w.name, b.seed, n, st.correct, setupS, refBefore, refAfter)
	return &result{
		Correct:   st.correct == n,
		Attempted: n,
		Failed:    n - st.correct,
		Metrics: map[string]metric{
			"jobs_per_s":            {st.jobsPerS, "jobs/s"},
			"latency_p50_ms":        {finite(st.p50), "ms"},
			"latency_p90_ms":        {finite(st.p90), "ms"},
			"server_cpu_ms_per_job": {st.cpuMS, "ms"},
			"peak_rss_mb":           {float64(rss) / (1 << 20), "MB"},
			"success_share":         {float64(st.correct) / float64(n), "ratio"},
			"setup_s":               {setupS, "s"},
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failedLatencyMS stands in for an infinite latency in the JSON output
// when a percentile lands on a failed request.
const failedLatencyMS = 1e9

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return failedLatencyMS
	}
	return v
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

var refSink complex128

// hostRef times a fixed complex-arithmetic loop — the kind of work the
// LU kernels do — five times and returns the median in ms. It only
// reports how fast the host ran around a run; nothing is normalised by
// it.
func hostRef() float64 {
	var t []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		w := complex(0.9999, 1e-4)
		z := [4]complex128{1, 1i, -1, -1i}
		for i := 0; i < 4_000_000; i++ {
			for j := range z {
				z[j] = z[j]*w + 1e-9
			}
		}
		refSink += z[0] + z[1] + z[2] + z[3]
		t = append(t, ms(time.Since(t0)))
	}
	return quantile(t, 0.5)
}
