package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"analogdft"
	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/jobs"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
	"analogdft/internal/spice"
)

// span is one timed call of a traced run. Spans live in memory and are
// written as JSON when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0 for a root
	Name   string  `json:"name"`
	Req    int     `json:"req"` // index into the timed list, -1 for none
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
	Self   float64 `json:"self_ms"` // Dur minus the time its children cover
	start  time.Time
}

type tracer struct {
	t0    time.Time
	spans []span
	// samples collects per-call values by metric name.
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64)}
}

func (t *tracer) add(parent int, name string, req int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: ms(start.Sub(t.t0)), Dur: ms(end.Sub(start)), start: start})
	return len(t.spans)
}

func (t *tracer) begin(parent int, name string, req int) int {
	now := time.Now()
	return t.add(parent, name, req, now, now)
}

func (t *tracer) end(id int) { t.spans[id-1].Dur = ms(time.Since(t.spans[id-1].start)) }

// call runs fn as a span under parent and, when fn succeeds, adds its
// duration in µs to the samples of metric.
func (t *tracer) call(parent, req int, name, metric string, fn func() error) error {
	s := time.Now()
	err := fn()
	e := time.Now()
	t.add(parent, name, req, s, e)
	if err == nil && metric != "" {
		t.samples[metric] = append(t.samples[metric], float64(e.Sub(s))/float64(time.Microsecond))
	}
	return err
}

func (t *tracer) put(metric string, v float64) { t.samples[metric] = append(t.samples[metric], v) }

// write computes self times and writes every span to path.
func (t *tracer) write(path string) error {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.Start + s.Dur})
		}
	}
	for i := range t.spans {
		iv := children[t.spans[i].ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, -1.0
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		t.spans[i].Self = t.spans[i].Dur - covered
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// counters are the server metrics a traced run reports per job, read from
// /metrics before and after the timed phase.
var counters = map[string]string{
	"detect.cells_per_job":               "detect_cells_total",
	"detect.solves_per_job":              "detect_solves_total",
	"detect.singular_per_job":            "detect_singular_points_total",
	"detect.retries_per_job":             "detect_retries_total",
	"analysis.patches_per_job":           "engine_patch_total",
	"analysis.lowrank_solves_per_job":    "engine_lowrank_solve_total",
	"analysis.lowrank_refactors_per_job": "engine_lowrank_refactor_total",
	"mna.solves_per_job":                 "mna_solves_total",
	"boolexpr.petrick_clauses_per_job":   "boolexpr_petrick_clauses_total",
	"jobs.store_evictions_per_job":       "jobs_cache_evictions_total",
	"jobs.rejected_per_job":              "jobs_rejected_total",
}

// p50 metrics: name → unit. Each is the median of the tracer's samples
// under the same name, 0 where the workload never exercises the layer.
var medians = map[string]string{
	"dftserved.submit_ms_p50":        "ms",
	"dftserved.result_ms_p50":        "ms",
	"dftserved.http_overhead_ms_p50": "ms",
	"jobs.queue_wait_ms_p50":         "ms",
	"jobs.run_ms_p50":                "ms",
	"jobs.run_overhead_ms_p50":       "ms",
	"jobs.resolve_us_p50":            "us",
	"jobs.cache_key_us_p50":          "us",
	"jobs.store_get_us_p50":          "us",
	"jobs.store_put_us_p50":          "us",
	"analogdft.session_ms_p50":       "ms",
	"detect.elapsed_ms_p50":          "ms",
	"analysis.sweep_grid_us_p50":     "us",
	"analysis.sweep_fault_us_p50":    "us",
	"mna.new_system_us_p50":          "us",
	"mna.point_us_p50":               "us",
	"numeric.factor_sparse_us_p50":   "us",
	"numeric.factor_dense_us_p50":    "us",
	"numeric.solve_us_p50":           "us",
	"boolexpr.optimize_us_p50":       "us",
	"spice.parse_us_p50":             "us",
}

// means: name → unit, the mean of the tracer's samples.
var means = map[string]string{
	"jobs.payload_bytes_mean": "bytes",
	"mna.n_mean":              "count",
	"mna.nnz_mean":            "count",
	"mna.sparse_share":        "ratio",
}

func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced replays the timed list once over HTTP, as an untraced run
// does, with client spans and a job-view read after each job,
// then through the library in-process, and reports per-layer metrics. The server runs exactly as in an
// untraced run; only the benchmark traces.
func (b *bench) traced() (*result, error) {
	refBefore := hostRef()
	srv, prefill, _, err := b.setUp(0)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	m0, err := scrape(hc, srv.base)
	if err != nil {
		srv.stop()
		return nil, err
	}
	want := b.wanted(prefill)
	cpu0 := cpuSelf()
	r, err := b.runTimed(srv, want, true)
	cpu1 := cpuSelf()
	if err != nil {
		srv.stop()
		return nil, err
	}
	m1, err := scrape(hc, srv.base)
	hc.CloseIdleConnections()
	srv.stop()
	if err != nil {
		return nil, err
	}
	outs := r.outs
	bad, err := b.verify(outs, prefill)
	if err != nil {
		return nil, err
	}
	st := r.stats(bad)

	tr := newTracer()
	n := float64(len(outs))
	responses, non2xx, respBytes := 0, 0, 0
	for i, o := range outs {
		responses += o.responses
		non2xx += o.non2xx
		respBytes += o.responseBytes
		if !o.ok || bad[i] {
			continue
		}
		root := tr.add(0, "bench.request", i, o.start, o.start.Add(o.latency))
		tr.add(root, "dftserved.submit", i, o.start, o.start.Add(o.submit))
		tr.add(root, "dftserved.result", i, o.start.Add(o.submit), o.start.Add(o.submit+o.result))
		tr.put("dftserved.submit_ms_p50", ms(o.submit))
		tr.put("dftserved.result_ms_p50", ms(o.result))
		if o.view.Finished != nil {
			tr.put("dftserved.http_overhead_ms_p50", ms(o.latency-o.view.Finished.Sub(o.view.Created)))
		}
		size := len(o.payload)
		if want[i] != nil {
			size = len(want[i])
		}
		tr.put("jobs.payload_bytes_mean", float64(size))
		if o.hit || o.view.Started == nil || o.view.Finished == nil {
			continue
		}
		var p struct {
			Stats jobs.StatsJSON `json:"stats"`
		}
		if err := json.Unmarshal(o.payload, &p); err != nil {
			return nil, fmt.Errorf("decode payload of request %d: %w", i, err)
		}
		run := ms(o.view.Finished.Sub(*o.view.Started))
		tr.put("jobs.queue_wait_ms_p50", ms(o.view.Started.Sub(o.view.Created)))
		tr.put("jobs.run_ms_p50", run)
		tr.put("jobs.run_overhead_ms_p50", run-p.Stats.ElapsedMS)
		tr.put("detect.elapsed_ms_p50", p.Stats.ElapsedMS)
	}
	if err := b.replay(tr, outs, prefill); err != nil {
		return nil, err
	}
	refAfter := hostRef()
	if err := tr.write(filepath.Join(b.work, "trace-"+strconv.FormatInt(b.seed, 10)+".json")); err != nil {
		return nil, err
	}

	mt := make(map[string]metric)
	delta := func(name string) float64 { return m1[name] - m0[name] }
	for k, c := range counters {
		mt[k] = metric{delta(c) / n, "count"}
	}
	fallback := 0.0
	if tot := delta("engine_patch_total") + delta("engine_fallback_total"); tot > 0 {
		fallback = delta("engine_fallback_total") / tot
	}
	mt["detect.fallback_share"] = metric{fallback, "ratio"}
	hitShare := 0.0
	if tot := delta("jobs_cache_hits_total") + delta("jobs_cache_misses_total"); tot > 0 {
		hitShare = delta("jobs_cache_hits_total") / tot
	}
	mt["jobs.cache_hit_share"] = metric{hitShare, "ratio"}
	for k, u := range medians {
		mt[k] = metric{quantile(tr.samples[k], 0.5), u}
	}
	for k, u := range means {
		mt[k] = metric{mean(tr.samples[k]), u}
	}
	mt["dftserved.response_bytes_per_job"] = metric{float64(respBytes) / n, "bytes"}
	mt["dftserved.non2xx_share"] = metric{float64(non2xx) / float64(max(responses, 1)), "ratio"}
	mt["host.ref_ms"] = metric{(refBefore + refAfter) / 2, "ms"}
	mt["client.cpu_ms_per_job"] = metric{ms(cpu1-cpu0) / n, "ms"}
	mt["trace.jobs_per_s"] = metric{st.jobsPerS, "jobs/s"}
	return &result{Correct: st.correct == len(outs), Attempted: len(outs), Failed: len(outs) - st.correct, Metrics: mt}, nil
}

// Per-layer timings repeat each call this many times per subject.
const (
	layerReps  = 16
	faultsEach = 8
)

// replay runs the first w.replay timed requests through the library's
// public entry points, one span per call parented to the request's span:
// deck parsing, Resolve, CacheKey, a Session for each miss and the root
// Optimize on its matrix. For the first miss of each template it also
// times the engine layers on every circuit the job simulates (mna system
// build, per-point solve, analysis sweeps, sparse and dense LU and the
// triangular solve), and finally the result store at the workload's
// entry count and payloads.
func (b *bench) replay(tr *tracer, outs []outcome, prefill [][]byte) error {
	seen := make(map[int]bool)
	for i, r := range b.w.timed[:min(b.w.replay, len(b.w.timed))] {
		root := tr.begin(0, "inproc.request", i)
		if r.req.Deck != "" {
			if err := tr.call(root, i, "spice.Parse", "spice.parse_us_p50", func() error {
				_, err := spice.ParseString(r.req.Deck)
				return err
			}); err != nil {
				return err
			}
		}
		var res *jobs.Resolved
		if err := tr.call(root, i, "jobs.Resolve", "jobs.resolve_us_p50", func() (err error) {
			res, err = r.req.Resolve()
			return err
		}); err != nil {
			return err
		}
		costName := ""
		if res.Req.Kind == jobs.KindOptimize {
			costName = res.Cost.Name
		}
		if err := tr.call(root, i, "jobs.CacheKey", "jobs.cache_key_us_p50", func() error {
			_, err := jobs.CacheKey(res.Req.Kind, costName, res.Bench.Circuit, res.Bench.Chain, res.Faults, res.Options)
			return err
		}); err != nil {
			return err
		}
		if r.hot < 0 {
			if err := session(tr, root, i, res); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
			if !seen[r.tmpl] {
				seen[r.tmpl] = true
				if err := engineLayers(tr, root, i, res); err != nil {
					return fmt.Errorf("request %d: %w", i, err)
				}
			}
		}
		tr.end(root)
	}
	var misses [][]byte
	for i, o := range outs {
		if b.w.timed[i].hot < 0 && o.ok {
			misses = append(misses, o.payload)
		}
	}
	if b.w.store == "fs" {
		return b.storeLayer(tr, prefill, misses)
	}
	return b.storeLayer(tr, misses, misses)
}

// session times NewSession plus the job's method, and the root Optimize
// on the resulting matrix for matrix and optimize jobs.
func session(tr *tracer, root, i int, res *jobs.Resolved) error {
	var mx *analogdft.Matrix
	ctx := context.Background()
	t0 := time.Now()
	s := analogdft.NewSession(res.Bench, res.Faults, res.Options)
	var err error
	switch res.Req.Kind {
	case jobs.KindEvaluate:
		_, err = s.Evaluate(ctx)
	case jobs.KindMatrix:
		mx, err = s.Matrix(ctx)
	case jobs.KindOptimize:
		if _, err = s.Optimize(ctx, res.Cost); err == nil {
			mx, err = s.Matrix(ctx)
		}
	}
	if err != nil {
		return err
	}
	tr.add(root, "analogdft.Session", i, t0, time.Now())
	tr.put("analogdft.session_ms_p50", ms(time.Since(t0)))
	if mx == nil {
		return nil
	}
	return tr.call(root, i, "analogdft.Optimize", "boolexpr.optimize_us_p50", func() error {
		_, err := analogdft.Optimize(mx, res.Bench.Chain, res.Cost)
		return err
	})
}

// engineLayers times the layers under detect on every circuit the job
// simulates: the bench circuit for an evaluate job, each DFT
// configuration otherwise.
func engineLayers(tr *tracer, root, i int, res *jobs.Resolved) error {
	ckts := []*circuit.Circuit{res.Bench.Circuit}
	if res.Req.Kind != jobs.KindEvaluate {
		mod, err := analogdft.ApplyDFT(res.Bench.Circuit, res.Bench.Chain)
		if err != nil {
			return err
		}
		ckts = ckts[:0]
		for _, cfg := range mod.Configurations(res.Options.IncludeTransparent) {
			c, err := mod.Configure(cfg)
			if err != nil {
				return err
			}
			ckts = append(ckts, c)
		}
	}
	region := res.Options.Region
	if region == (analogdft.Region{}) {
		var err error
		if region, err = analogdft.ReferenceRegion(res.Bench.Circuit); err != nil {
			return err
		}
	}
	grid := analogdft.Grid(region, res.Options.Points)
	for _, ckt := range ckts {
		if err := circuitLayers(tr, root, i, ckt, res, grid); err != nil {
			return err
		}
	}
	return nil
}

func circuitLayers(tr *tracer, root, i int, ckt *circuit.Circuit, res *jobs.Resolved, grid []float64) error {
	driven, err := mna.Driven(ckt)
	if err != nil {
		return err
	}
	out := circuit.CanonicalNode(driven.Output)
	var sys *mna.System
	var layout mna.Layout
	if err := tr.call(root, i, "mna.NewSystemLayout", "mna.new_system_us_p50", func() (err error) {
		if sys, err = mna.NewSystemLayout(driven, res.Options.Layout); err != nil {
			return err
		}
		layout, err = sys.ResolveLayout()
		return err
	}); err != nil {
		return err
	}
	sparse, err := mna.NewSystemLayout(driven, mna.LayoutSparse)
	if err != nil {
		return err
	}
	if _, err := sparse.ResolveLayout(); err != nil {
		return err
	}
	tr.put("mna.n_mean", float64(sys.N()))
	tr.put("mna.nnz_mean", float64(sparse.Pattern().NNZ()))
	share := 0.0
	if layout == mna.LayoutSparse {
		share = 1
	}
	tr.put("mna.sparse_share", share)

	eng, err := analysis.NewEngineLayout(ckt, res.Options.Layout)
	if err != nil {
		return err
	}
	if err := tr.call(root, i, "analysis.SweepGrid", "analysis.sweep_grid_us_p50", func() error {
		_, err := eng.SweepGrid(grid)
		return err
	}); err != nil {
		return err
	}
	for _, f := range res.Faults[:min(faultsEach, len(res.Faults))] {
		// Faults the engine cannot patch (opens, shorts) fail here and
		// are left out; detect clones the circuit for those instead.
		_ = tr.call(root, i, "analysis.SweepFault", "analysis.sweep_fault_us_p50", func() error {
			_, err := eng.SweepFault(f, grid)
			return err
		})
	}

	sw, err := sys.NewSweeper(out)
	if err != nil {
		return err
	}
	for k := 0; k < layerReps; k++ {
		f := grid[k*len(grid)/layerReps]
		_ = tr.call(root, i, "mna.Sweeper.VoltageAt", "mna.point_us_p50", func() error {
			_, err := sw.VoltageAt(f)
			return err
		})
	}
	sw.FlushMetrics()

	ssw, err := sparse.NewSweeper(out)
	if err != nil {
		return err
	}
	if _, err := ssw.VoltageAt(grid[len(grid)/2]); err != nil {
		return err
	}
	vals := append([]complex128(nil), ssw.Workspace().SVals...)
	ssw.FlushMetrics()
	pat := sparse.Pattern()
	scratch := numeric.NewSparseScratch(pat)
	for k := 0; k < layerReps; k++ {
		if err := tr.call(root, i, "numeric.SparseScratch.Factor", "numeric.factor_sparse_us_p50", func() error {
			_, err := scratch.Factor(vals)
			return err
		}); err != nil {
			return err
		}
	}
	n := sparse.N()
	m := numeric.NewMatrix(n, n)
	piv := make([]int, n)
	var lu numeric.LU
	for k := 0; k < layerReps; k++ {
		if err := pat.ScatterInto(m, vals); err != nil {
			return err
		}
		if err := tr.call(root, i, "numeric.FactorInPlace", "numeric.factor_dense_us_p50", func() (err error) {
			lu, err = numeric.FactorInPlace(m, piv)
			return err
		}); err != nil {
			return err
		}
	}
	x := make([]complex128, n)
	for k := 0; k < layerReps; k++ {
		for j := range x {
			x[j] = 1
		}
		if err := tr.call(root, i, "numeric.LU.SolveInPlace", "numeric.solve_us_p50", func() error {
			return lu.SolveInPlace(x)
		}); err != nil {
			return err
		}
	}
	return nil
}

// storeLayer times the workload's kind of result store: Get of present
// keys and Put of new ones, on a store filled to the workload's entry
// count with its own payloads (a filler-seeded disk store for a
// disk-store workload, the 128-entry in-memory default otherwise).
func (b *bench) storeLayer(tr *tracer, gets, puts [][]byte) error {
	if len(gets) == 0 || len(puts) == 0 {
		return nil
	}
	key := func(i int) string {
		sum := sha256.Sum256([]byte("dftbench replay " + strconv.Itoa(i)))
		return "sha256:" + hex.EncodeToString(sum[:])
	}
	var st jobs.Store
	entries := 128
	if b.w.store == "fs" {
		dir := filepath.Join(b.work, "replay-store")
		if err := writeFillers(dir, b.w.fillers); err != nil {
			return err
		}
		var err error
		if st, err = jobs.NewFSStore(dir, storeBytes); err != nil {
			return err
		}
		entries = len(gets)
	} else {
		st = jobs.NewMemStore(entries)
	}
	defer st.Close()
	root := tr.begin(0, "inproc.store", -1)
	for k := 0; k < entries; k++ {
		st.Put(key(k), gets[k%len(gets)])
	}
	const reps = 256
	for k := 0; k < reps; k++ {
		if err := tr.call(root, -1, "jobs.Store.Get", "jobs.store_get_us_p50", func() error {
			if _, ok := st.Get(key(k % entries)); !ok {
				return fmt.Errorf("store lost key %d", k%entries)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for k := 0; k < reps; k++ {
		_ = tr.call(root, -1, "jobs.Store.Put", "jobs.store_put_us_p50", func() error {
			st.Put(key(entries+k), puts[k%len(puts)])
			return nil
		})
	}
	tr.end(root)
	return nil
}
