package main

import (
	"fmt"
	"math/rand"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
)

// The planner experiment measures what the secondary indexes buy on the
// workload the query planner was built for: a selective range query over
// a numeric field (the shape of every "band_gap between x and y"
// screening query in the paper's §IV). Each corpus size runs the same
// ~1%-selectivity range read two ways — against a collection with an
// index on the field (the planner picks the index scan) and against an
// index-free twin (full scan) — and BENCH_planner.json records both,
// plus the speedup. The run fails when the 100k-doc speedup lands under
// -planner-min-speedup (default 10x), making the artifact a regression
// gate and not just a report. The 100k corpus also runs an equality
// read on a 40-value field (2.5% selectivity) both ways; its same-run
// speedup is recorded as eq_speedup_100k for scripts/check.sh to gate.

// plannerBenchResult is one timed workload in BENCH_planner.json.
type plannerBenchResult struct {
	Name      string  `json:"name"`
	Docs      int     `json:"docs"`
	Iters     int     `json:"iters"`
	MsPerOp   float64 `json:"ms_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Plan      string  `json:"plan"`
}

func runPlannerBench(out string, minSpeedup float64) error {
	sizes := []int{10000, 100000}
	const rounds = 3 // best-of to shed scheduler noise

	var results []plannerBenchResult
	speedups := map[int]float64{}
	eqSpeedup := 0.0
	for _, n := range sizes {
		indexed, scan, err := plannerCorpus(n)
		if err != nil {
			return err
		}
		// ~1% selectivity window in the middle of the value range.
		filter := document.D{"value": document.D{"$gte": 49.5, "$lt": 50.5}}
		opts := &datastore.FindOpts{Sort: []string{"value"}}

		iters := 2000
		if n >= 100000 {
			iters = 500
		}
		ri, err := plannerMeasure(fmt.Sprintf("range.indexed.%dk", n/1000), indexed, filter, opts, n, iters, rounds)
		if err != nil {
			return err
		}
		// Full scans at 100k are ~ms each; fewer iters keep the run short.
		rs, err := plannerMeasure(fmt.Sprintf("range.scan.%dk", n/1000), scan, filter, opts, n, iters/10, rounds)
		if err != nil {
			return err
		}
		if ri.Plan == rs.Plan {
			return fmt.Errorf("planner bench: both sides ran plan %q — the index was not used", ri.Plan)
		}
		results = append(results, ri, rs)
		speedups[n] = rs.MsPerOp / ri.MsPerOp

		if n >= 100000 {
			eq := document.D{"group": int64(7)}
			ei, err := plannerMeasure(fmt.Sprintf("eq.indexed.%dk", n/1000), indexed, eq, nil, n, iters, rounds)
			if err != nil {
				return err
			}
			es, err := plannerMeasure(fmt.Sprintf("eq.scan.%dk", n/1000), scan, eq, nil, n, iters/10, rounds)
			if err != nil {
				return err
			}
			if ei.Plan == es.Plan {
				return fmt.Errorf("planner bench: both equality sides ran plan %q — the index was not used", ei.Plan)
			}
			results = append(results, ei, es)
			eqSpeedup = es.MsPerOp / ei.MsPerOp
		}
	}

	payload := struct {
		Rounds      int                  `json:"rounds"`
		Results     []plannerBenchResult `json:"results"`
		Speedup10k  float64              `json:"speedup_10k"`
		Speedup100k float64              `json:"speedup_100k"`
		MinSpeedup  float64              `json:"min_speedup_gate"`
		EqSpeedup   float64              `json:"eq_speedup_100k"`
	}{Rounds: rounds, Results: results, Speedup10k: speedups[10000], Speedup100k: speedups[100000], MinSpeedup: minSpeedup,
		EqSpeedup: eqSpeedup}
	if err := writeJSON(out, payload); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	fmt.Printf("  indexed range speedup:  10k %.1fx, 100k %.1fx (gate: >=%.0fx at 100k)\n",
		speedups[10000], speedups[100000], minSpeedup)
	fmt.Printf("  indexed equality speedup: 100k %.1fx\n", eqSpeedup)
	if speedups[100000] < minSpeedup {
		return fmt.Errorf("planner bench: 100k-doc indexed range speedup %.1fx under the %.0fx gate", speedups[100000], minSpeedup)
	}
	return nil
}

// plannerCorpus builds two memory collections with identical documents:
// one with indexes on "value" and "group", one index-free.
func plannerCorpus(n int) (indexed, scan *datastore.Collection, err error) {
	rng := rand.New(rand.NewSource(int64(n)))
	si := datastore.MustOpenMemory()
	ss := datastore.MustOpenMemory()
	indexed = si.C("bench")
	scan = ss.C("bench")
	indexed.EnsureIndex("value")
	indexed.EnsureIndex("group")
	for i := 0; i < n; i++ {
		doc := document.D{
			"_id":   fmt.Sprintf("bench-%06d", i),
			"value": rng.Float64() * 100,
			"group": int64(rng.Intn(40)),
		}
		if _, err := indexed.Insert(doc.Copy()); err != nil {
			return nil, nil, err
		}
		if _, err := scan.Insert(doc); err != nil {
			return nil, nil, err
		}
	}
	return indexed, scan, nil
}

// plannerMeasure times one query shape best-of-rounds, recording the
// planner's reported mode so the artifact proves which side used the
// index. A warmup query first amortizes the index's lazy key-sort.
func plannerMeasure(name string, c *datastore.Collection, filter document.D, opts *datastore.FindOpts,
	docs, iters, rounds int) (plannerBenchResult, error) {
	plan, err := c.Explain(filter, opts)
	if err != nil {
		return plannerBenchResult{}, fmt.Errorf("%s: explain: %w", name, err)
	}
	mode, _ := plan["mode"].(string)
	res := plannerBenchResult{Name: name, Docs: docs, Iters: iters, Plan: mode}
	if _, err := c.FindAll(filter, opts); err != nil { // warmup
		return res, fmt.Errorf("%s: warmup: %w", name, err)
	}
	for round := 0; round < rounds; round++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := c.FindAll(filter, opts); err != nil {
				return res, fmt.Errorf("%s: %w", name, err)
			}
		}
		elapsed := time.Since(start)
		per := float64(elapsed.Nanoseconds()) / float64(iters) / 1e6
		if res.MsPerOp == 0 || per < res.MsPerOp {
			res.MsPerOp = per
			res.OpsPerSec = float64(iters) / elapsed.Seconds()
		}
	}
	fmt.Printf("  %-20s %6d iters  %8.4f ms/op  %10.1f ops/s  plan=%s\n", name, res.Iters, res.MsPerOp, res.OpsPerSec, res.Plan)
	return res, nil
}
