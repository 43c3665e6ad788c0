package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns caps the benchmark's client connections at the host's core
// count (nproc = 2 on the reference host), so client and server share
// the cores the way one client machine would.
const maxConns = 2

// envelope is the Materials API response envelope; rows stay raw until
// a check needs them.
type envelope struct {
	Valid    bool              `json:"valid_response"`
	Error    string            `json:"error"`
	Response []json.RawMessage `json:"response"`
	NResults int               `json:"num_results"`
}

// reply is the outcome of one REST call.
type reply struct {
	status int
	bytes  int
	env    envelope
	err    error
}

// ok reports a 200 with a valid, self-consistent envelope.
func (r reply) ok() bool {
	return r.err == nil && r.status == http.StatusOK && r.env.Valid && r.env.NResults == len(r.env.Response)
}

// client is the benchmark's REST client. Requests rotate over the
// signed-up API keys.
type client struct {
	base string
	hc   *http.Client
	keys []string
	next atomic.Uint64
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Timeout: 60 * time.Second, Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// signup registers n API keys, as the webload generator's users.
func (c *client) signup(n int) error {
	for i := 0; i < n; i++ {
		q := url.Values{"provider": {"google"}, "email": {fmt.Sprintf("user%02d@example.com", i)}}
		rep := c.do(&request{method: "POST", path: "/auth/signup?" + q.Encode()})
		if !rep.ok() || len(rep.env.Response) != 1 {
			return fmt.Errorf("signup %d: status %d: %v %s", i, rep.status, rep.err, rep.env.Error)
		}
		var row struct {
			Key string `json:"api_key"`
		}
		if err := json.Unmarshal(rep.env.Response[0], &row); err != nil || row.Key == "" {
			return fmt.Errorf("signup %d: no api_key in response", i)
		}
		c.keys = append(c.keys, row.Key)
	}
	return nil
}

// do sends one request and reads and decodes the whole response.
func (c *client) do(r *request) reply {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		return reply{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if len(c.keys) > 0 {
		req.Header.Set("X-API-KEY", c.keys[c.next.Add(1)%uint64(len(c.keys))])
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{status: resp.StatusCode, bytes: len(raw), err: err}
	if err == nil {
		rep.err = json.Unmarshal(raw, &rep.env)
	}
	return rep
}

// loopResult is what one load phase measured.
type loopResult struct {
	readMs, writeMs []float64 // latencies of successful requests
	lateMs          []float64 // open loop: send time minus due time
	attempted       int
	failed          int
	elapsed         time.Duration
	inflightMax     int64
	userBytes       int64    // request bodies of writes
	failures        []string // the first few failures, for the report
}

func (lr *loopResult) merge(o *loopResult) {
	lr.readMs = append(lr.readMs, o.readMs...)
	lr.writeMs = append(lr.writeMs, o.writeMs...)
	lr.lateMs = append(lr.lateMs, o.lateMs...)
	lr.attempted += o.attempted
	lr.failed += o.failed
	lr.userBytes += o.userBytes
	for _, f := range o.failures {
		lr.noteFailure(f)
	}
}

// maxFailureNotes caps the failures a run describes in its report.
const maxFailureNotes = 5

func (lr *loopResult) noteFailure(desc string) {
	if len(lr.failures) < maxFailureNotes {
		lr.failures = append(lr.failures, desc)
	}
}

// completed counts requests that succeeded.
func (lr *loopResult) completed() int { return lr.attempted - lr.failed }

// driver sends a workload's requests and hands each reply to check,
// which reports whether the request succeeded.
type driver struct {
	c     *client
	next  func(k int) *request
	seq   *atomic.Int64 // stream position, shared across phases
	check func(k int, r *request, rep reply) bool
	rec   *recorder // traced phase only: one request in flight
}

// send issues stream request k and records its outcome; lat is measured
// from `from` (the due time in an open loop, the send time otherwise).
func (d *driver) send(k int, from time.Time, lr *loopResult, inflight *atomic.Int64) {
	r := d.next(k)
	if n := inflight.Add(1); n > lr.inflightMax {
		lr.inflightMax = n
	}
	var s span
	if d.rec != nil {
		d.rec.current.Store(uint64(k) + 1)
		s = span{Name: "client", Op: r.op, Req: uint64(k) + 1, Member: -1, Start: d.rec.now()}
	}
	rep := d.c.do(r)
	done := time.Now()
	if d.rec != nil {
		s.End = d.rec.now()
		s.Bytes = int64(rep.bytes)
		d.rec.add(s)
		d.rec.current.Store(0)
	}
	inflight.Add(-1)
	lr.attempted++
	if r.op != opRead {
		lr.userBytes += int64(len(r.body))
	}
	if !d.check(k, r, rep) {
		lr.failed++
		lr.noteFailure(fmt.Sprintf("%s %s: status %d, error %v %q", r.method, r.path, rep.status, rep.err, rep.env.Error))
		return
	}
	ms := float64(done.Sub(from)) / float64(time.Millisecond)
	if r.op == opRead {
		lr.readMs = append(lr.readMs, ms)
	} else {
		lr.writeMs = append(lr.writeMs, ms)
	}
}

// closedLoop runs clients senders that each wait for a reply before
// sending the next request, for dur.
func (d *driver) closedLoop(clients int, dur time.Duration) *loopResult {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]*loopResult, clients)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &loopResult{}
		wg.Add(1)
		go func(lr *loopResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(d.seq.Add(1) - 1)
				d.send(k, time.Now(), lr, &inflight)
			}
		}(parts[i])
	}
	wg.Wait()
	return joinParts(parts, time.Since(start))
}

// series sends n requests one after another.
func (d *driver) series(n int) *loopResult {
	start := time.Now()
	lr := &loopResult{}
	var inflight atomic.Int64
	for i := 0; i < n; i++ {
		d.send(int(d.seq.Add(1)-1), time.Now(), lr, &inflight)
	}
	lr.elapsed = time.Since(start)
	return lr
}

// openLoop dispatches requests on a fixed schedule of rate per second
// with at most senders in flight. Request n is due at start + n/rate;
// its latency counts from that due time, so a stall also delays every
// request queued behind it, and how late each send was is recorded.
func (d *driver) openLoop(rate float64, senders int, dur time.Duration) *loopResult {
	start := time.Now()
	total := int64(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	var slot atomic.Int64
	parts := make([]*loopResult, senders)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &loopResult{}
		wg.Add(1)
		go func(lr *loopResult) {
			defer wg.Done()
			for {
				n := slot.Add(1) - 1
				if n >= total {
					return
				}
				due := start.Add(time.Duration(float64(n) * interval))
				if wait := time.Until(due); wait > 0 {
					sleepFor(wait)
				}
				lr.lateMs = append(lr.lateMs, float64(time.Since(due))/float64(time.Millisecond))
				k := int(d.seq.Add(1) - 1)
				d.send(k, due, lr, &inflight)
			}
		}(parts[i])
	}
	wg.Wait()
	return joinParts(parts, time.Since(start))
}

func joinParts(parts []*loopResult, elapsed time.Duration) *loopResult {
	out := &loopResult{elapsed: elapsed}
	for _, p := range parts {
		out.merge(p)
		out.inflightMax = max(out.inflightMax, p.inflightMax)
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / (1 << 20)
}
