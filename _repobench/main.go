// Command repobench is the repository benchmark. It stands up the
// deployment `mpserve -role router` builds over four `mpserve -role node`
// peers — 2 shard groups × 2 members on durable stores, the router with
// its health loop and one 4096-entry result cache shared with the query
// engine, and the REST API — all in one process on loopback listeners,
// loads a seeded 20,000-document materials corpus, drives one workload
// through the public REST API, checks the results, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	repobench --workload portal_hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs a separate traced pass and reports the per-layer ledger, writing
// the spans to .bench_build/repobench/spans-<workload>-<seed>.jsonl.
// Run it from the repository root through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// workDir holds the benchmark's data directories and span files,
// relative to the repository root.
var workDir = filepath.Join(".bench_build", "repobench")

// setupRuns is how many times an untraced run sets the deployment up;
// setup_s is their median. Each set-up loads 20,000 documents (about
// 11 s on a 2-core host); with 24 s windows a run takes about 60 s, and
// the 48 runs of a benchmark pass about 2900 s of their 3420, which
// leaves no room for a third.
const setupRuns = 2

// heapMark is the number of requests, sent one at a time before the
// window, after which heap_mb is taken.
const heapMark = 96

// writeOps is the length of the traced run's write phase: five cycles of
// publish_mixed's operations (60 reads, 25 bulkWrites, 15 insertManys).
const writeOps = 5 * len(publishKinds)

// writeBase is the stream position of the write phase's first request,
// past any position a timed phase reaches, so its inserted ids are new
// and the same under every run of a seed.
const writeBase = 1 << 24

// workload describes one traffic mix.
type workload struct {
	name    string
	rate    float64 // open loop: requests per second; 0 = closed loop
	clients int     // closed loop: concurrent clients
	stream  func(s *streams) func(k int) *request
	// sampleEvery selects the reads checked against the reference
	// (1 in sampleEvery); 0 checks none, because concurrent writes
	// change what a read should return.
	sampleEvery uint64
}

// portalRate is portal_hot's fixed arrival rate, well below the cached
// read capacity (4100 to 4900 req/s closed-loop on a 2-core host): client
// and server share those cores with other tenants, and at higher rates a
// slow stretch of the host queues the open loop and moves every
// percentile by a third or more between runs. Its throughput_ops is this
// rate until reads take longer than senders/rate (6.7 ms): it flags
// saturation and measures nothing below it.
const portalRate = 300

// scanClients is api_scan's closed-loop client count. With two clients
// on the two cores, clients, tier and collector all contend for the CPU
// and the run measures the scheduler: two sets of ten runs gave
// throughput quartile spreads of 0.23 and 0.25 of the median. One client
// leaves the cores to the tier, which still fans every read out to both
// shard groups in parallel: two sets of ten runs gave 0.045 and 0.109.
const scanClients = 1

var workloads = map[string]workload{
	"portal_hot": {name: "portal_hot", rate: portalRate,
		stream: func(s *streams) func(int) *request { return s.portal }, sampleEvery: 64},
	"api_scan": {name: "api_scan", clients: scanClients,
		stream: func(s *streams) func(int) *request { return s.scan }, sampleEvery: 8},
	"publish_mixed": {name: "publish_mixed", clients: maxConns,
		stream: func(s *streams) func(int) *request { return s.publish }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: portal_hot, api_scan or publish_mixed")
	seed := fs.Int64("seed", 1, "seed for the corpus and request streams")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "repobench: need --workload portal_hot|api_scan|publish_mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	b := &bench{wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, out: stdout}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "repobench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "repobench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "repobench: %v\n", err)
		return 2
	}
	for _, p := range b.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "repobench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one benchmark run.
type bench struct {
	wl       workload
	seed     int64
	dur      time.Duration
	out      io.Writer
	problems []string // correctness failures
	wrong    int      // requests whose result was wrong

	// Filled by verify after a replica diff and reopen.
	divergent, lagGens int
	replayS            float64
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

// setup starts a deployment in a fresh directory, loads the corpus,
// signs up the API keys and warms the caches with every hot read.
func (b *bench) setup(run int, c *corpus, s *streams, rec *recorder) (*deployment, *client, time.Duration, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("data-%d-%d", os.Getpid(), run))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, 0, fmt.Errorf("clear %s: %w", dir, err)
	}
	start := time.Now()
	d, err := deploy(dir, c.docs, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient(d.api.url)
	fail := func(err error) (*deployment, *client, time.Duration, error) {
		cl.close()
		d.close()
		d.remove()
		return nil, nil, 0, err
	}
	if err := cl.signup(apiKeys); err != nil {
		return fail(err)
	}
	for _, r := range s.hot {
		if rep := cl.do(r); !rep.ok() {
			return fail(fmt.Errorf("warm-up %s %s: status %d: %v %s", r.method, r.path, rep.status, rep.err, rep.env.Error))
		}
	}
	return d, cl, time.Since(start), nil
}

// teardown stops a deployment and deletes its data.
func teardown(d *deployment, cl *client) error {
	cl.close()
	d.close()
	return d.remove()
}

// drive runs the workload's own load pattern for dur.
func (b *bench) drive(drv *driver, dur time.Duration) *loopResult {
	if b.wl.rate > 0 {
		return drv.openLoop(b.wl.rate, maxConns, dur)
	}
	return drv.closedLoop(b.wl.clients, dur)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (*result, error) {
	c := genCorpus(b.seed, corpusSize)
	s := newStreams(b.seed, c)
	var setups []float64
	var d *deployment
	var cl *client
	for i := 0; i < setupRuns; i++ {
		var took time.Duration
		var err error
		if d, cl, took, err = b.setup(i, c, s, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			if err := teardown(d, cl); err != nil {
				return nil, err
			}
		}
	}
	defer teardown(d, cl)
	c.docs = nil // deployment memory excludes the benchmark's corpus copy

	l := newLedger(b.seed, b.wl.sampleEvery)
	var seq atomic.Int64
	drv := &driver{c: cl, next: b.wl.stream(s), seq: &seq, check: l.check}
	// heap_mb is taken after a fixed amount of work: the stream's first
	// heapMark requests, sent one at a time before the window. At the end
	// of a closed-loop window it would depend on how many requests the
	// tier completed. The collection also starts every window at the same
	// point of the collector's cycle: the set-up leaves a heap of several
	// hundred MiB, and whether a collection of it falls inside a short
	// window would otherwise decide the tail latency.
	pre := drv.series(heapMark)
	heapMB := liveHeapMB()
	before, m0 := snapshotAll(d), memStats()
	lr := b.drive(drv, b.dur)
	after, m1 := snapshotAll(d), memStats()
	heapAfter := liveHeapMB()

	if err := b.verify(d, cl, l, false); err != nil {
		return nil, err
	}
	lr.failed += b.wrong

	sort.Float64s(setups)
	setupS := setups[len(setups)/2]
	if len(setups)%2 == 0 {
		setupS = (setups[len(setups)/2-1] + setupS) / 2
	}
	b.printf("%-16s %12.4f s      (median of %d setups: %v)\n", "setup_s", setupS, len(setups), setups)
	b.printf("%-16s %12.4f ms     n=%d\n", "read_p50_ms", quantile(lr.readMs, 0.5), len(lr.readMs))
	b.printf("%-16s %12.4f ms     n=%d\n", "read_p75_ms", quantile(lr.readMs, 0.75), len(lr.readMs))
	b.printf("%-16s %12.4f ms     n=%d\n", "read_p90_ms", quantile(lr.readMs, 0.9), len(lr.readMs))
	b.printf("%-16s %12.4f ms     n=%d\n", "read_p99_ms", quantile(lr.readMs, 0.99), len(lr.readMs))
	if len(lr.writeMs) > 0 {
		b.printf("%-16s %12.4f ms     n=%d\n", "write_p50_ms", quantile(lr.writeMs, 0.5), len(lr.writeMs))
		b.printf("%-16s %12.4f ms     n=%d\n", "write_p99_ms", quantile(lr.writeMs, 0.99), len(lr.writeMs))
	} else {
		b.printf("%-16s %12s        n=0 (read-only workload)\n", "write_p50_ms", "-")
		b.printf("%-16s %12s        n=0 (read-only workload)\n", "write_p99_ms", "-")
	}
	throughput := float64(lr.completed()) / lr.elapsed.Seconds()
	b.printf("%-16s %12.4f ops/s  n=%d in %.3fs\n", "throughput_ops", throughput, lr.completed(), lr.elapsed.Seconds())
	// The requests before the window count toward the run's attempted
	// and failed requests, not toward the window's figures.
	lr.attempted += pre.attempted
	lr.failed += pre.failed
	for _, f := range pre.failures {
		lr.noteFailure(f)
	}
	b.printf("%-16s %12.6f ratio  failed=%d attempted=%d\n", "error_rate", ratio(float64(lr.failed), float64(lr.attempted)), lr.failed, lr.attempted)
	b.printf("%-16s %12.4f MiB    after %d requests, before the window (%.1f MiB after it)\n", "heap_mb", heapMB, pre.attempted, heapAfter)
	win := delta{before, after}
	b.printf("in the window: %d collections, %.0f journal fsyncs, %.0f replication-log entries applied by replicas, %.0f failed catch-ups, %.0f replica write failures\n",
		m1.NumGC-m0.NumGC, win.memberCounter("datastore.journal.commits"), win.memberCounter("node_repl_entries_applied_total"),
		win.routerCounter("cluster.repl_catchup_failures"), win.routerCounter("cluster.replica_write_failures"))
	b.printFailures(lr)

	values := map[string]float64{
		"setup_s":        setupS,
		"read_p50_ms":    quantile(lr.readMs, 0.5),
		"throughput_ops": throughput,
		"heap_mb":        heapMB,
	}
	return b.result(lr, endToEnd, values), nil
}

// traced runs four phases on one deployment: the workload's own load
// pattern (runtime and load-generator metrics), then one request in
// flight untraced, then one request in flight traced (the read-path
// span ledger and registry deltas), each a third of the run; and last a
// traced write phase of writeOps publish_mixed requests, one in flight,
// from which the write-path metrics come on every workload.
func (b *bench) traced() (*result, error) {
	c := genCorpus(b.seed, corpusSize)
	s := newStreams(b.seed, c)
	rec := newRecorder()
	d, cl, _, err := b.setup(0, c, s, rec)
	if err != nil {
		return nil, err
	}
	defer teardown(d, cl)
	c.docs = nil
	start := snapshotAll(d)
	phase := b.dur / 3

	l := newLedger(b.seed, b.wl.sampleEvery)
	var seq atomic.Int64
	drv := &driver{c: cl, next: b.wl.stream(s), seq: &seq, check: l.check}
	m0 := memStats()
	lrA := b.drive(drv, phase)
	m1 := memStats()
	lrB := drv.closedLoop(1, phase)

	before := snapshotAll(d)
	rec.on.Store(true)
	drv.rec = rec
	lrC := drv.closedLoop(1, phase)
	after := snapshotAll(d)
	probeDocs := map[int]float64{}
	for _, m := range d.members {
		for _, name := range m.store.Collections() {
			n, err := m.store.C(name).Count(nil)
			if err != nil {
				return nil, fmt.Errorf("count peer %d: %w", m.index, err)
			}
			probeDocs[m.index] += float64(n)
		}
	}

	// The write phase's reads follow its own writes, so they are not
	// compared with the reference, which holds the corpus as loaded.
	l.every = 0
	var wseq atomic.Int64
	wseq.Store(writeBase)
	writeStart := rec.now()
	wdrv := &driver{c: cl, next: s.publish, seq: &wseq, check: l.check, rec: rec}
	lrD := wdrv.series(writeOps)
	rec.on.Store(false)
	afterW := snapshotAll(d)

	spans := rec.snapshot()
	spanFile := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", b.wl.name, b.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}
	var rspans, wspans []span
	for _, sp := range spans {
		if sp.Start < writeStart {
			rspans = append(rspans, sp)
		} else {
			wspans = append(wspans, sp)
		}
	}
	vals := layerMetrics(tracedPhase{spans: rspans, reg: delta{before, after}, lr: lrC, probeDocs: probeDocs})
	wvals := layerMetrics(tracedPhase{spans: wspans, reg: delta{after, afterW}, lr: lrD, probeDocs: probeDocs})
	for _, name := range writePath {
		vals[name] = wvals[name]
	}

	whole := delta{start, afterW}
	vals["loadgen.late_p99_ms"] = quantile(lrA.lateMs, 0.99)
	vals["loadgen.inflight_max"] = float64(lrA.inflightMax)
	vals["queryengine.rate_limited"] = whole.routerCounter("query.rate_limited")
	vals["router.read_retries"] = whole.routerCounter("cluster.read_retries_total")
	vals["repl.replica_write_failures"] = whole.routerCounter("cluster.replica_write_failures")
	vals["runtime.alloc_bytes_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(lrA.attempted))
	vals["runtime.gc_cycles_per_kop"] = ratio(float64(m1.NumGC-m0.NumGC)*1000, float64(lrA.attempted))
	p50B, p50C := quantile(lrB.readMs, 0.5), quantile(lrC.readMs, 0.5)
	vals["trace.overhead_pct"] = ratio(p50C-p50B, p50B) * 100

	if err := b.verify(d, cl, l, true); err != nil {
		return nil, err
	}
	vals["repl.divergent_docs"] = float64(b.divergent)
	vals["repl.lag_gens"] = float64(b.lagGens)
	vals["journal.replay_s"] = b.replayS

	lr := &loopResult{}
	for _, p := range []*loopResult{lrA, lrB, lrC, lrD} {
		lr.merge(p)
	}
	lr.failed += b.wrong
	b.printf("phases: load %d req in %.2fs, untraced 1-in-flight %d req, traced %d req, traced writes %d req (%d writes) in %.2fs (%d spans -> %s)\n",
		lrA.attempted, lrA.elapsed.Seconds(), lrB.attempted, lrC.attempted, lrD.attempted, len(lrD.writeMs), lrD.elapsed.Seconds(), len(spans), spanFile)
	b.printf("read p50: untraced %.4f ms (n=%d), traced %.4f ms (n=%d); traced write p50 %.4f ms (n=%d)\n",
		p50B, len(lrB.readMs), p50C, len(lrC.readMs), quantile(lrD.writeMs, 0.5), len(lrD.writeMs))
	for _, m := range perLayer {
		b.printf("%-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	b.printFailures(lr)
	return b.result(lr, perLayer, vals), nil
}

// verify runs the correctness checks once the load has stopped. Reads
// are compared with the reference; publish_mixed's writes are checked
// through REST and on the primaries. A traced run also diffs the
// replicas and reopens every member from its journal (the restart
// report), which takes seconds per member.
func (b *bench) verify(d *deployment, cl *client, l *ledger, traced bool) error {
	b.problems = append(b.problems, l.readProblems()...)
	if len(l.samples) > 0 {
		ref, err := newReference(genCorpus(b.seed, corpusSize).docs)
		if err != nil {
			return err
		}
		bad, err := checkReads(ref, l.samples)
		if err != nil {
			return err
		}
		b.wrong += len(bad)
		b.problems = append(b.problems, bad...)
		b.printf("checked %d sampled reads against the reference: %d mismatches\n", len(l.samples), len(bad))
	}
	wrote := len(l.inserted) > 0 || len(l.notes) > 0
	if wrote {
		bad, applied := checkPublish(d, cl, l, corpusSize)
		b.problems = append(b.problems, bad...)
		b.printf("checked %d acknowledged inserts and %d acknowledged notes: %d problems; %d of %d documents from failed insertMany requests were applied\n",
			len(l.inserted), len(l.notes), len(bad), applied, l.unacked)
	}
	if !traced {
		return nil
	}
	div, lag, err := replicaReport(d)
	if err != nil {
		return err
	}
	b.divergent, b.lagGens = div, lag
	b.printf("replicas: %d documents differ from their primary, %d generations behind (reported, not gated)\n", div, lag)
	replay, bad, err := reopenAll(d, l.inserted)
	if err != nil {
		return err
	}
	b.replayS = replay
	b.problems = append(b.problems, bad...)
	b.printf("reopened every member from its journal: mean %.4f s\n", replay)
	return nil
}

// printFailures describes the first failed requests.
func (b *bench) printFailures(lr *loopResult) {
	for _, f := range lr.failures {
		b.printf("failed request: %s\n", f)
	}
}

// result assembles the output line for the given metric set.
func (b *bench) result(lr *loopResult, defs []metricDef, values map[string]float64) *result {
	res := &result{
		Correct:   len(b.problems) == 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res
}
