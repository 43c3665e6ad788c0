package main

import (
	"os"
	"strings"

	"matproj/internal/datastore"
	"matproj/internal/obs"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload. No read tail is among them: on a shared 2-core host the 75th
// percentile of portal_hot moved by more than a quarter of its median
// between runs of the same code, the 90th by a third. The report prints
// the 75th, 90th and 99th percentiles, write latencies (publish_mixed
// only) and the error rate (zero on a healthy run; it rides the result
// line as attempted/failed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"throughput_ops", "ops/s"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run, in layer order.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"restapi.self_ms", "ms"},
	{"restapi.http_ms", "ms"},
	{"restapi.resp_bytes_per_op", "bytes"},
	{"queryengine.self_ms", "ms"},
	{"queryengine.rate_limited", "count"},
	{"rcache.hit_ratio", "ratio"},
	{"rcache.router_hits", "count"},
	{"rcache.invalidations_per_write", "count"},
	{"rcache.evictions", "count"},
	{"router.self_ms", "ms"},
	{"router.fanout", "calls"},
	{"router.straggler_ms", "ms"},
	{"router.read_retries", "count"},
	{"wire.self_ms", "ms"},
	{"wire.bytes_per_op", "bytes"},
	{"wire.calls_per_write", "calls"},
	{"node.self_ms", "ms"},
	{"datastore.busy_ms_per_op", "ms"},
	{"datastore.docs_returned_per_op", "count"},
	{"datastore.full_scans_per_op", "count"},
	{"datastore.index_scans_per_op", "count"},
	{"journal.records_per_commit", "count"},
	{"journal.fsync_ms", "ms"},
	{"journal.commit_wait_ms", "ms"},
	{"journal.bytes_per_user_byte", "ratio"},
	{"journal.replay_s", "s"},
	{"repl.divergent_docs", "count"},
	{"repl.replica_write_failures", "count"},
	{"repl.lag_gens", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.overhead_pct", "%"},
}

// writePath are the per-layer metrics a traced run takes from its write
// phase rather than from the workload's own traced phase, so that they
// measure writes on read-only workloads too.
var writePath = []string{
	"rcache.invalidations_per_write",
	"wire.calls_per_write",
	"journal.records_per_commit",
	"journal.fsync_ms",
	"journal.commit_wait_ms",
	"journal.bytes_per_user_byte",
}

// registries is a point-in-time copy of every registry of a deployment
// plus the members' journal sizes.
type registries struct {
	router  obs.Snapshot
	members []obs.Snapshot
	journal int64
}

func snapshotAll(d *deployment) registries {
	r := registries{router: d.reg.Snapshot()}
	for _, m := range d.members {
		r.members = append(r.members, m.reg.Snapshot())
		if fi, err := os.Stat(datastore.JournalFile(m.dir)); err == nil {
			r.journal += fi.Size()
		}
	}
	return r
}

func counter(s obs.Snapshot, name string) float64 { return float64(s.Counters[name]) }

// histSum totals the sums and counts of the histograms whose names match.
func histSum(s obs.Snapshot, match func(string) bool) (sum, count float64) {
	for name, h := range s.Histograms {
		if match(name) {
			sum += h.Sum
			count += float64(h.Count)
		}
	}
	return sum, count
}

// delta is the change of a registry quantity between two snapshots.
type delta struct{ before, after registries }

func (d delta) routerCounter(name string) float64 {
	return counter(d.after.router, name) - counter(d.before.router, name)
}

func (d delta) memberCounter(name string) float64 {
	var v float64
	for i := range d.after.members {
		v += counter(d.after.members[i], name) - counter(d.before.members[i], name)
	}
	return v
}

func (d delta) routerHist(match func(string) bool) (sum, count float64) {
	s1, c1 := histSum(d.after.router, match)
	s0, c0 := histSum(d.before.router, match)
	return s1 - s0, c1 - c0
}

func (d delta) memberHist(match func(string) bool) (sum, count float64) {
	for i := range d.after.members {
		s1, c1 := histSum(d.after.members[i], match)
		s0, c0 := histSum(d.before.members[i], match)
		sum += s1 - s0
		count += c1 - c0
	}
	return sum, count
}

// queryOpHist matches the query engine's per-op latency histograms.
func queryOpHist(name string) bool {
	return strings.HasPrefix(name, "query.") && strings.HasSuffix(name, "_ms")
}

// storeOpHist matches the datastore's per-op latency histograms (not the
// journal's).
func storeOpHist(name string) bool {
	return strings.HasPrefix(name, "datastore.") && strings.HasSuffix(name, "_ms") &&
		!strings.HasPrefix(name, "datastore.journal.")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const nsPerMs = 1e6

// tracedPhase is everything the traced phase measured.
type tracedPhase struct {
	spans []span
	reg   delta // registry change over the traced phase
	lr    *loopResult
	// probeDocs is, per peer, how many documents one health probe counts:
	// the node's health handler runs Count over every collection, a full
	// scan that lands in the same datastore counters as request work.
	probeDocs map[int]float64
}

// layerMetrics derives the span- and registry-based per-layer metrics
// of the traced phase. Time metrics are per client request; a layer's
// self time is its spans' time minus what its children cover, and where
// the code offers no span boundary (restapi → queryengine, node →
// datastore) the split uses the registries' latency histograms. Health
// probes are background spans; their datastore time (bounded by their
// node spans), scans and counted documents are taken out of the
// datastore figures.
func layerMetrics(t tracedPhase) map[string]float64 {
	self := selfTimes(t.spans)
	kids := childrenOf(t.spans)
	writes := map[uint64]bool{}
	var n, nWrites, clientSelf, clientBytes, restDur, routerDur, routerSelf, wireSelf, wireBytes, nodeDur, wireInWrites float64
	var routerCalls, wireCalls, routerHits, stragglerSum, stragglerN float64
	// Health probes' datastore work, to take out of the per-request
	// datastore figures.
	var probeMs, probeScans, probeDocs float64
	for _, s := range t.spans {
		if s.Req == 0 {
			if s.Name == "node.health" {
				probeMs += float64(s.dur()) / nsPerMs
				probeScans++
				probeDocs += t.probeDocs[s.Member]
			}
			continue
		}
		switch layerOf(s.Name) {
		case 0:
			n++
			clientSelf += float64(self[s.ID])
			clientBytes += float64(s.Bytes)
			if s.Op != opRead {
				nWrites++
				writes[s.Req] = true
			}
		case 1:
			restDur += float64(s.dur())
		case 2:
			routerCalls++
			routerDur += float64(s.dur())
			routerSelf += float64(self[s.ID])
			var lo, hi int64
			nw := 0
			for _, k := range kids[s.ID] {
				if layerOf(k.Name) != 3 {
					continue
				}
				if nw == 0 || k.dur() < lo {
					lo = k.dur()
				}
				if nw == 0 || k.dur() > hi {
					hi = k.dur()
				}
				nw++
			}
			wireCalls += float64(nw)
			if nw == 0 && isRead(s.Name) {
				routerHits++
			}
			if nw >= 2 {
				stragglerSum += float64(hi - lo)
				stragglerN++
			}
		case 3:
			wireSelf += float64(self[s.ID])
			wireBytes += float64(s.Bytes)
		case 4:
			nodeDur += float64(s.dur())
		}
	}
	for _, s := range t.spans {
		if s.Req != 0 && layerOf(s.Name) == 3 && writes[s.Req] {
			wireInWrites++
		}
	}
	queryMs, _ := t.reg.routerHist(queryOpHist)
	// A probe's node span bounds its datastore time from above, so on a
	// workload that never reaches the datastore the difference can dip
	// below zero; it is clamped there.
	storeMs, _ := t.reg.memberHist(storeOpHist)
	storeMs = max(0, storeMs-probeMs)
	fsyncMs, fsyncs := t.reg.memberHist(func(name string) bool { return name == "datastore.journal.fsync_ms" })
	commitMs, _ := t.reg.memberHist(func(name string) bool { return name == "datastore.journal.commit_ms" })
	commits := t.reg.memberCounter("datastore.journal.commits")
	hits, misses := t.reg.routerCounter("rcache.hits"), t.reg.routerCounter("rcache.misses")
	return map[string]float64{
		"restapi.self_ms":                ratio(restDur/nsPerMs-queryMs, n),
		"restapi.http_ms":                ratio(clientSelf/nsPerMs, n),
		"restapi.resp_bytes_per_op":      ratio(clientBytes, n),
		"queryengine.self_ms":            ratio(queryMs-routerDur/nsPerMs, n),
		"rcache.hit_ratio":               ratio(hits, hits+misses),
		"rcache.router_hits":             routerHits,
		"rcache.invalidations_per_write": ratio(t.reg.routerCounter("rcache.invalidations"), nWrites),
		"rcache.evictions":               t.reg.routerCounter("rcache.evictions"),
		"router.self_ms":                 ratio(routerSelf/nsPerMs, n),
		"router.fanout":                  ratio(wireCalls, routerCalls),
		"router.straggler_ms":            ratio(stragglerSum/nsPerMs, stragglerN),
		"wire.self_ms":                   ratio(wireSelf/nsPerMs, n),
		"wire.bytes_per_op":              ratio(wireBytes, n),
		"wire.calls_per_write":           ratio(wireInWrites, nWrites),
		"node.self_ms":                   ratio(nodeDur/nsPerMs-storeMs, n),
		"datastore.busy_ms_per_op":       ratio(storeMs, n),
		"datastore.docs_returned_per_op": ratio(t.reg.memberCounter("datastore.docs_returned")-probeDocs, n),
		"datastore.full_scans_per_op":    ratio(t.reg.memberCounter("datastore.planner.full_scans")-probeScans, n),
		"datastore.index_scans_per_op":   ratio(t.reg.memberCounter("datastore.planner.index_scans"), n),
		"journal.records_per_commit":     ratio(t.reg.memberCounter("datastore.journal.appends"), commits),
		"journal.fsync_ms":               ratio(fsyncMs, fsyncs),
		"journal.commit_wait_ms":         ratio(commitMs-fsyncMs, commits),
		"journal.bytes_per_user_byte":    ratio(float64(t.reg.after.journal-t.reg.before.journal), float64(t.lr.userBytes)),
	}
}

// isRead reports whether a router span is a read operation.
func isRead(name string) bool {
	switch strings.TrimPrefix(name, "router.") {
	case "find", "count", "distinct", "aggregate":
		return true
	}
	return false
}
