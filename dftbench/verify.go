package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"

	"analogdft/internal/jobs"
)

// sampleExtra is how many further seeded misses, beyond one per
// template, are recomputed in-process and compared byte for byte.
const sampleExtra = 3

// shape is the part of a payload whose form is fixed by the request
// template: matrix dimensions, fault count and simulation effort.
type shape struct {
	Det         [][]bool          `json:"det"`
	Omega       [][]float64       `json:"omega"`
	Faults      []json.RawMessage `json:"faults"`
	FailedCells []string          `json:"failed_cells"`
	Stats       jobs.StatsJSON    `json:"stats"`
}

var elapsedRE = regexp.MustCompile(`"elapsed_ms":[-+0-9.eE]+`)

// stripElapsed zeroes stats.elapsed_ms, the one payload field that
// differs between two runs of the same job.
func stripElapsed(p []byte) []byte {
	return elapsedRE.ReplaceAll(p, []byte(`"elapsed_ms":0`))
}

// verify checks the answers of a timed phase and the set-up payloads
// behind its hits. Hits were already compared with their prefill
// payloads during the run. Here a seeded sample of misses — one per
// template, plus sampleExtra more — and the first set-up payload of each
// template are recomputed through an in-process jobs.Manager of the same
// tree and compared byte for byte with stats.elapsed_ms removed. Every
// other miss and every set-up payload must then have its template's
// shape: no failed cells, every cell done, and the same matrix
// dimensions, fault count, cell count and solve count. It returns which
// timed requests failed a check; a hit fails with its prefill payload.
func (b *bench) verify(outs []outcome, prefill [][]byte) ([]bool, error) {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	type item struct {
		req     jobs.Request
		tmpl    int
		payload []byte
		timed   int // index into outs, or -1 for a set-up payload
	}
	var sample []item
	seenTimed := make(map[int]bool)
	var misses []int
	for i, r := range b.w.timed {
		if r.hot < 0 && outs[i].ok {
			misses = append(misses, i)
			if !seenTimed[r.tmpl] {
				seenTimed[r.tmpl] = true
				sample = append(sample, item{r.req, r.tmpl, outs[i].payload, i})
			}
		}
	}
	for k := 0; k < sampleExtra && len(misses) > 0; k++ {
		i := misses[rng.Intn(len(misses))]
		sample = append(sample, item{b.w.timed[i].req, b.w.timed[i].tmpl, outs[i].payload, i})
	}
	seenSetup := make(map[int]bool)
	for i, r := range b.w.setup {
		if !seenSetup[r.tmpl] {
			seenSetup[r.tmpl] = true
			sample = append(sample, item{r.req, r.tmpl, prefill[i], -1})
		}
	}

	mgr := jobs.New()
	defer mgr.Close(context.Background())
	bad := make([]bool, len(outs))
	ref := make(map[int]shape)
	for _, it := range sample {
		want, err := runInProcess(mgr, it.req)
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		if !bytes.Equal(stripElapsed(it.payload), stripElapsed(want)) {
			if it.timed < 0 {
				return nil, fmt.Errorf("set-up payload (%s) differs from the in-process result of the same request", b.w.tmpls[it.tmpl])
			}
			bad[it.timed] = true
			fmt.Printf("dftbench: request %d: payload differs from the in-process result\n", it.timed)
		}
		if _, ok := ref[it.tmpl]; !ok {
			var s shape
			if err := json.Unmarshal(want, &s); err != nil {
				return nil, fmt.Errorf("decode in-process payload: %w", err)
			}
			ref[it.tmpl] = s
		}
	}
	check := func(payload []byte, tmpl int) error {
		var s shape
		if err := json.Unmarshal(payload, &s); err != nil {
			return err
		}
		return sameShape(s, ref[tmpl])
	}
	badSetup := make([]bool, len(b.w.setup))
	for i, r := range b.w.setup {
		if err := check(prefill[i], r.tmpl); err != nil {
			badSetup[i] = true
			fmt.Printf("dftbench: set-up request %d (%s): %v\n", i, b.w.tmpls[r.tmpl], err)
		}
	}
	for i, r := range b.w.timed {
		if r.hot >= 0 {
			bad[i] = bad[i] || badSetup[r.hot]
		}
	}
	for _, i := range misses {
		if err := check(outs[i].payload, b.w.timed[i].tmpl); err != nil {
			bad[i] = true
			fmt.Printf("dftbench: request %d (%s): %v\n", i, b.w.tmpls[b.w.timed[i].tmpl], err)
		}
	}
	return bad, nil
}

func sameShape(got, want shape) error {
	switch {
	case len(got.FailedCells) > 0:
		return fmt.Errorf("%d failed cells", len(got.FailedCells))
	case got.Stats.CellsDone != got.Stats.Cells:
		return fmt.Errorf("%d of %d cells done", got.Stats.CellsDone, got.Stats.Cells)
	case got.Stats.Cells != want.Stats.Cells || got.Stats.Solves != want.Stats.Solves:
		return fmt.Errorf("%d cells, %d solves; want %d, %d", got.Stats.Cells, got.Stats.Solves, want.Stats.Cells, want.Stats.Solves)
	case len(got.Faults) != len(want.Faults) || len(got.Det) != len(want.Det) || len(got.Omega) != len(want.Omega):
		return fmt.Errorf("payload dimensions differ from the template's")
	}
	for r := range got.Det {
		if len(got.Det[r]) != len(want.Det[r]) || len(got.Omega[r]) != len(want.Omega[r]) {
			return fmt.Errorf("row %d has the wrong length", r)
		}
	}
	return nil
}

// runInProcess runs one request through mgr and waits for its payload.
func runInProcess(mgr *jobs.Manager, req jobs.Request) ([]byte, error) {
	v, err := mgr.Submit(req)
	if err != nil {
		return nil, err
	}
	feed, _, err := mgr.Stream(v.ID)
	if err != nil {
		return nil, err
	}
	for {
		_, done, wake := feed.Snapshot(0)
		if done {
			break
		}
		<-wake
	}
	payload, v, err := mgr.Result(v.ID)
	if err != nil {
		return nil, err
	}
	if v.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s: %s", v.State, v.Err)
	}
	return payload, nil
}
