package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"analogdft/internal/circuit"
	"analogdft/internal/jobs"
	"analogdft/internal/netgen"
	"analogdft/internal/spice"
)

// request is one job submission of a workload list.
type request struct {
	body []byte       // POST /v1/jobs body, sent verbatim
	req  jobs.Request // the same request, for the in-process replay
	// tmpl groups requests of equal cost and result shape (same circuit,
	// kind, engine and grid; only ε differs).
	tmpl int
	// hot is the index of the prefilled result this request resubmits,
	// or -1 for a cache miss.
	hot int
}

// workload is a fixed, seeded request mix. Every run of one seed sends
// exactly the same requests, and the timed list is a whole number of
// cycles of one template sequence, so its cost does not depend on how
// fast the host runs it.
type workload struct {
	name  string
	tmpls []string // template names, indexed by request.tmpl
	setup []request
	timed []request
	// store names the server's result store: "mem" for the shipped
	// in-memory default, "fs" for a disk store under a fresh directory.
	store string
	// fillers is the number of never-requested entries a disk store
	// starts with (see storeChurn).
	fillers int
	// replay is how many timed requests the in-process replay of a
	// traced run re-executes through the library.
	replay int
}

// Requests per nominal second. They fix how many requests one run sends
// (rate × --seconds), so a faster program finishes the same work sooner
// instead of doing more of it: the server never prunes its job table,
// and a time-boxed run would turn a throughput gain into a memory
// regression. store-churn sends about what the 2-core reference host
// sustains in --seconds; biquad-mix and cascade-evaluate send about three
// times that, so that a run spans many of the host's speed phases.
const (
	biquadCyclesPerSecond   = 24
	storeChurnJobsPerSecond = 1000
	cascadeJobsPerSecond    = 10
)

// epsBand hands out distinct ε values from a narrow seeded band around
// 0.10. ε changes verdicts but not the number of solves, so distinct ε
// make every request a cache miss at unchanged cost.
type epsBand struct {
	next, step float64
}

func newEpsBand(rng *rand.Rand) *epsBand {
	return &epsBand{next: 0.095 + 1e-4*rng.Float64(), step: 1e-7}
}

func (b *epsBand) take() float64 {
	b.next += b.step
	return b.next
}

func makeRequest(r jobs.Request, tmpl, hot int) request {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // jobs.Request always marshals
	}
	return request{body: body, req: r, tmpl: tmpl, hot: hot}
}

func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "biquad-mix":
		return biquadMix(rng, seconds), nil
	case "cascade-evaluate":
		return cascadeEvaluate(rng, seconds)
	case "store-churn":
		return storeChurn(rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want biquad-mix, cascade-evaluate or store-churn)", name)
}

// biquadMix is the paper's own job on the paper biquad, every request a
// cache miss: default-engine matrices, both §4 cost functions (the
// opamp-cost one on the catastrophic universe, whose opens and shorts
// take the clone fallback), a 961-point lowrank matrix and one optimize
// on twin-t-notch, which resolves to the dense layout.
func biquadMix(rng *rand.Rand, seconds int) *workload {
	eps := newEpsBand(rng)
	cycle := []struct {
		tmpl int
		make func(eps float64) jobs.Request
	}{
		{0, func(e float64) jobs.Request {
			return jobs.Request{Kind: jobs.KindMatrix, Bench: "paper-biquad", Options: jobs.OptionSpec{Eps: e}}
		}},
		{1, func(e float64) jobs.Request {
			return jobs.Request{Kind: jobs.KindOptimize, Bench: "paper-biquad", Cost: "configs", Options: jobs.OptionSpec{Eps: e}}
		}},
		{0, func(e float64) jobs.Request {
			return jobs.Request{Kind: jobs.KindMatrix, Bench: "paper-biquad", Options: jobs.OptionSpec{Eps: e}}
		}},
		{2, func(e float64) jobs.Request {
			return jobs.Request{Kind: jobs.KindOptimize, Bench: "paper-biquad", Cost: "opamps",
				Faults: jobs.FaultSpec{Universe: "catastrophic"}, Options: jobs.OptionSpec{Eps: e}}
		}},
		{3, func(e float64) jobs.Request {
			return jobs.Request{Kind: jobs.KindMatrix, Bench: "paper-biquad", Options: jobs.OptionSpec{Eps: e, Engine: "lowrank", Points: 961}}
		}},
		{4, func(e float64) jobs.Request {
			return jobs.Request{Kind: jobs.KindOptimize, Bench: "twin-t-notch", Options: jobs.OptionSpec{Eps: e}}
		}},
	}
	w := &workload{
		name:   "biquad-mix",
		tmpls:  []string{"matrix", "optimize-configs", "optimize-opamps-catastrophic", "matrix-lowrank-961", "twin-t-optimize"},
		store:  "mem",
		replay: 2 * len(cycle),
	}
	emit := func(n int) []request {
		var out []request
		for c := 0; c < n; c++ {
			for _, t := range cycle {
				out = append(out, makeRequest(t.make(eps.take()), t.tmpl, -1))
			}
		}
		return out
	}
	w.setup = emit(6)
	w.timed = emit(biquadCyclesPerSecond * seconds)
	return w
}

// cascadeEvaluate sends evaluate jobs on inline decks of five fixed
// 20-stage netgen cascades (n = 68, 53 faults, sparse layout), cycled
// in order.
func cascadeEvaluate(rng *rand.Rand, seconds int) (*workload, error) {
	decks, err := cascadeDecks(20, 7, 6, 5)
	if err != nil {
		return nil, err
	}
	eps := newEpsBand(rng)
	w := &workload{name: "cascade-evaluate", store: "mem", replay: len(decks)}
	for i := range decks {
		w.tmpls = append(w.tmpls, fmt.Sprintf("cascade20-%d", i))
	}
	emit := func(n int) []request {
		out := make([]request, 0, n)
		for i := 0; i < n; i++ {
			d := i % len(decks)
			r := jobs.Request{Kind: jobs.KindEvaluate, Deck: decks[d], Options: jobs.OptionSpec{Eps: eps.take()}}
			out = append(out, makeRequest(r, d, -1))
		}
		return out
	}
	w.setup = emit(len(decks))
	w.timed = emit(cascadeJobsPerSecond * seconds)
	return w, nil
}

// storeChurn runs against a disk store. Set-up prefills 64 hot results
// (56 ε-distinct paper-biquad matrices, 8 evaluates of four 12-stage
// cascades); in the timed phase 7 of every 8 requests resubmit a hot key
// chosen uniformly and the 8th is a new cheap dense evaluate
// (sallen-key-lp and twin-t-notch in turn), which the store must Put.
// Seven in eight rather than nine in ten keeps the 90th percentile
// inside the misses instead of on the hit/miss boundary.
func storeChurn(rng *rand.Rand, seconds int) (*workload, error) {
	decks, err := cascadeDecks(12, 4, 4, 4)
	if err != nil {
		return nil, err
	}
	eps := newEpsBand(rng)
	w := &workload{
		name:  "store-churn",
		tmpls: []string{"hit-biquad-matrix", "hit-cascade12-evaluate", "sallen-key-evaluate", "twin-t-evaluate"},
		store: "fs",
		// 1300 entries of fillerBytes plus the hot set fill the 1 MiB
		// store budget, so the first cold write already evicts and the
		// entry count stays level for the whole timed phase.
		fillers: 1300,
		replay:  2000,
	}
	for i := 0; i < 56; i++ {
		r := jobs.Request{Kind: jobs.KindMatrix, Bench: "paper-biquad", Options: jobs.OptionSpec{Eps: eps.take()}}
		w.setup = append(w.setup, makeRequest(r, 0, -1))
	}
	for i := 0; i < 8; i++ {
		r := jobs.Request{Kind: jobs.KindEvaluate, Deck: decks[i%len(decks)], Options: jobs.OptionSpec{Eps: eps.take()}}
		w.setup = append(w.setup, makeRequest(r, 1, -1))
	}
	cold := 0
	n := storeChurnJobsPerSecond * seconds
	for i := 0; i < n; i++ {
		if i%8 == 7 {
			bench, tmpl := "sallen-key-lp", 2
			if cold%2 == 1 {
				bench, tmpl = "twin-t-notch", 3
			}
			cold++
			r := jobs.Request{Kind: jobs.KindEvaluate, Bench: bench, Options: jobs.OptionSpec{Eps: eps.take()}}
			w.timed = append(w.timed, makeRequest(r, tmpl, -1))
			continue
		}
		h := rng.Intn(len(w.setup))
		hr := w.setup[h]
		hr.hot = h
		w.timed = append(w.timed, hr)
	}
	return w, nil
}

// deckSeed fixes the netgen seeds the cascade decks are drawn from. The
// decks are the same for every --seed, which then varies only ε and the
// hot-key picks, so no run's cost depends on which decks it drew.
const deckSeed = 20

// cascadeDecks draws netgen cascades until it has count decks whose stage
// mix is exactly lp lowpass and hp highpass stages (the rest flat gain),
// so every deck has the same MNA size and fault count and only component
// values differ. Each deck must pass Request.Resolve as an evaluate job.
func cascadeDecks(stages, lp, hp, count int) ([]string, error) {
	rng := rand.New(rand.NewSource(deckSeed))
	var decks []string
	for tries := 0; len(decks) < count; tries++ {
		if tries > 10000 {
			return nil, fmt.Errorf("no %d-stage cascade with %d lowpass and %d highpass stages in %d seeds", stages, lp, hp, tries)
		}
		b, err := netgen.Random(netgen.Spec{Stages: stages, Seed: rng.Int63()})
		if err != nil {
			return nil, err
		}
		gotLP, gotHP := stageMix(b.Circuit)
		if gotLP != lp || gotHP != hp {
			continue
		}
		deck, err := renderDeck(b.Circuit, b.Chain)
		if err != nil {
			return nil, err
		}
		if _, err := (jobs.Request{Kind: jobs.KindEvaluate, Deck: deck}).Resolve(); err != nil {
			return nil, fmt.Errorf("generated deck does not resolve: %w", err)
		}
		decks = append(decks, deck)
	}
	return decks, nil
}

// stageMix counts a netgen cascade's lowpass and highpass stages: each
// has one capacitor, and only a highpass stage's capacitor feeds the
// series node x_k.
func stageMix(ckt *circuit.Circuit) (lp, hp int) {
	for _, comp := range ckt.Components() {
		c, ok := comp.(*circuit.Capacitor)
		if !ok {
			continue
		}
		if strings.HasPrefix(strings.ToLower(c.B), "x_") {
			hp++
		} else {
			lp++
		}
	}
	return lp, hp
}

// renderDeck writes ckt as an inline SPICE deck. netgen names opamps
// OP_k (OPk_k in biquad sections) and spice.Write emits labels verbatim,
// but spice.Parse only reads opamps from "oa*" heads, so every opamp
// label — on its element line and in .chain — gets an "oa" prefix.
func renderDeck(ckt *circuit.Circuit, chain []string) (string, error) {
	opamps := make(map[string]bool)
	for _, op := range ckt.Opamps() {
		opamps[op.Name()] = true
	}
	var raw strings.Builder
	if err := spice.Write(&raw, ckt, chain); err != nil {
		return "", err
	}
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(raw.String(), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && (opamps[f[0]] || f[0] == ".chain") {
			for i, tok := range f {
				if opamps[tok] {
					f[i] = "oa" + tok
				}
			}
			line = strings.Join(f, " ")
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.String(), nil
}
