package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one per core of the 2-core
// reference host, each on its own keep-alive connection.
const clients = 2

// outcome is what one request of a run came back with.
type outcome struct {
	start   time.Time     // POST sent
	latency time.Duration // POST sent → final payload received
	payload []byte        // final payload; kept for misses only
	ok      bool          // 2xx all the way and, for a hit, byte-equal to its prefill payload
	err     error
	hit     bool // the server answered from its store
	// Filled in traced runs only.
	submit, result time.Duration // the two HTTP round trips
	view           jobView       // GET /v1/jobs/{id} after completion
	responseBytes  int
	non2xx         int
	responses      int
}

// jobView is the part of the server's job view the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Cached   bool       `json:"cached"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// client is one closed-loop client with its own connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var resultPrefix = []byte(`{"type":"result","result":`)

// do submits one job and fetches its final payload: the body of
// GET …/result for a cache hit, or the terminal result event of
// ?stream=rows otherwise. It never polls. With traced set it also
// times both round trips and reads the job view afterwards.
func (c *client) do(body []byte, traced bool) (o outcome) {
	t0 := time.Now()
	o.start = t0
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	o.responses++
	sub, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.responseBytes += len(sub)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusCreated {
		o.non2xx++
		o.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(sub))
		return o
	}
	t1 := time.Now()
	var v jobView
	if err := json.Unmarshal(sub, &v); err != nil {
		o.err = fmt.Errorf("submit: decode view: %w", err)
		return o
	}
	o.hit = v.Cached
	url := c.base + "/v1/jobs/" + v.ID + "/result"
	if v.State != "done" {
		url += "?stream=rows"
	}
	resp, err = c.hc.Get(url)
	if err != nil {
		o.err = err
		return o
	}
	o.responses++
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.responseBytes += len(raw)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.non2xx++
		o.err = fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(raw))
		return o
	}
	o.latency = time.Since(t0)
	if v.State == "done" {
		o.payload = raw
	} else {
		last := bytes.TrimSpace(raw)
		if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
			last = last[i+1:]
		}
		if !bytes.HasPrefix(last, resultPrefix) || last[len(last)-1] != '}' {
			o.err = fmt.Errorf("stream ended without a result event: %.200s", last)
			return o
		}
		o.payload = last[len(resultPrefix) : len(last)-1]
	}
	o.ok = true
	if traced {
		o.submit, o.result = t1.Sub(t0), time.Since(t1)
		o.err = c.view(v.ID, &o)
		o.ok = o.err == nil
	}
	return o
}

// view reads the job's created/started/finished timestamps.
func (c *client) view(id string, o *outcome) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	o.responses++
	if resp.StatusCode != http.StatusOK {
		o.non2xx++
		return fmt.Errorf("job view: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(&o.view)
}

// load sends list through the closed loop: each client sends its next
// request only after the previous one completed. want[i], when set, is
// the payload request i must return byte for byte. It returns one outcome
// per request and the wall time from the first send to the last reply.
func load(base string, list []request, want [][]byte, traced bool) ([]outcome, time.Duration) {
	out := make([]outcome, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		cl := newClient(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				o := cl.do(list[i].body, traced)
				if o.ok && want != nil && want[i] != nil {
					if !bytes.Equal(o.payload, want[i]) {
						o.ok = false
						o.err = errors.New("hit payload differs from the prefill payload of its key")
					}
					o.payload = nil
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}
