package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

// benchRow is one line of a benchmark artifact: an operation on one
// evaluation path, with the standard go-bench figures plus row
// throughput. Each op is measured on a baseline path and an improved
// path at identical workload scale, so the pair is a before/after
// reading; BENCH_gates.json names the pair and its floor.
type benchRow struct {
	Op          string  `json:"op"`
	Path        string  `json:"path"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Rows        int     `json:"rows"`
	RowsPerSec  float64 `json:"rows_per_sec"`
}

// cacheStats is the Metrics() delta recorded around the compiled Query
// benchmark: the generation-keyed program cache must amortize
// compilation to O(spec mutations), so ProgramCompiles stays O(1) while
// Queries grows with b.N.
type cacheStats struct {
	Queries            int64 `json:"queries"`
	ProgramCompiles    int64 `json:"program_compiles"`
	ProgramCacheHits   int64 `json:"program_cache_hits"`
	ProgramCacheMisses int64 `json:"program_cache_misses"`
	RouterCacheHits    int64 `json:"router_cache_hits"`
	BitsetBytes        int64 `json:"bitset_bytes"`
}

// benchReport is the one artifact shape -bench and -qps write and
// -benchdiff reads: which suite produced the rows (selecting its gates
// in BENCH_gates.json), the host they were measured on (ratios hold
// across hosts, scaling figures only up to GOMAXPROCS), the rows, and
// the counter citations backing them.
type benchReport struct {
	Suite     string         `json:"suite"`
	Env       benchEnv       `json:"env"`
	Rows      []benchRow     `json:"rows"`
	Citations benchCitations `json:"citations"`
}

// benchEnv fingerprints the host an artifact was measured on.
type benchEnv struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// benchCitations are the Metrics() deltas recorded around the improved
// runs: each shows the measured speedup came from the mechanism it is
// credited to. The qps suite cites none.
type benchCitations struct {
	Cache  *cacheStats  `json:"cache,omitempty"`
	Views  *viewStats   `json:"views,omitempty"`
	Ingest *ingestStats `json:"ingest,omitempty"`
}

// writeBenchReport stamps the report with this host's fingerprint and
// writes it as indented JSON to outPath (- for stdout).
func writeBenchReport(outPath string, report benchReport) error {
	report.Env = benchEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}

// runBenchSuite measures the compiled-vs-interpreted pairs at the
// bench_test.go workload scales (Sync: 180 days × 100 clicks/day;
// Reduce: 120 × 50; Query: repeated unsynchronized evaluation over the
// Sync workload) and writes the results as JSON to outPath.
func runBenchSuite(outPath string) error {
	syncObj, syncSpec, err := benchWorkload(180, 100)
	if err != nil {
		return err
	}
	redObj, redSpec, err := benchWorkload(120, 50)
	if err != nil {
		return err
	}
	at := caltime.Date(2000, 9, 1)

	syncBench := func(interpreted bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cs, err := subcube.New(syncSpec)
				if err != nil {
					b.Fatal(err)
				}
				cs.SetInterpreted(interpreted)
				if err := cs.InsertMO(syncObj.MO); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := cs.Sync(at); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	reduceBench := func(interpreted bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if interpreted {
					_, err = core.ReduceInterpreted(redSpec, redObj.MO, at)
				} else {
					_, err = core.Reduce(redSpec, redObj.MO, at)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// Query: repeated un-synchronized evaluation against one cube set —
	// every call rebuilds each cube's view per row, the workload where
	// the program/router cache pays off. The set is synchronized two
	// weeks before the query day, within the same significant period.
	queryAt := caltime.Date(2000, 9, 13)
	q := subcube.MustParseQuery(`aggregate [Time.month, URL.domain_grp]`, syncSpec.Env())
	newQuerySet := func(interpreted bool) (*subcube.CubeSet, error) {
		cs, err := subcube.New(syncSpec)
		if err != nil {
			return nil, err
		}
		cs.SetInterpreted(interpreted)
		if err := cs.InsertMO(syncObj.MO); err != nil {
			return nil, err
		}
		if _, err := cs.Sync(at); err != nil {
			return nil, err
		}
		return cs, nil
	}
	queryBench := func(cs *subcube.CubeSet) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Evaluate(q, queryAt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	interpSet, err := newQuerySet(true)
	if err != nil {
		return err
	}
	compiledSet, err := newQuerySet(false)
	if err != nil {
		return err
	}

	rows := []benchRow{
		measure("Sync", "interpreted", syncObj.MO.Len(), syncBench(true)),
		measure("Sync", "compiled", syncObj.MO.Len(), syncBench(false)),
		measure("Reduce", "interpreted", redObj.MO.Len(), reduceBench(true)),
		measure("Reduce", "compiled", redObj.MO.Len(), reduceBench(false)),
		measure("Query", "interpreted", syncObj.MO.Len(), queryBench(interpSet)),
	}
	before := compiledSet.Metrics().Snapshot()
	rows = append(rows, measure("Query", "compiled", syncObj.MO.Len(), queryBench(compiledSet)))
	delta := compiledSet.Metrics().Snapshot().Sub(before)
	cache := &cacheStats{
		Queries:            delta.Queries,
		ProgramCompiles:    delta.ProgramCompiles,
		ProgramCacheHits:   delta.ProgramCacheHits,
		ProgramCacheMisses: delta.ProgramCacheMisses,
		RouterCacheHits:    delta.RouterCacheHits,
		BitsetBytes:        compiledSet.Metrics().BitsetBytes.Load(),
	}

	viewRows, viewSt, err := runViewBench()
	if err != nil {
		return err
	}
	rows = append(rows, viewRows...)

	ingestRows, ingestSt, err := runIngestBench()
	if err != nil {
		return err
	}
	rows = append(rows, ingestRows...)

	report := benchReport{Suite: "bench", Rows: rows,
		Citations: benchCitations{Cache: cache, Views: viewSt, Ingest: ingestSt}}
	if err := writeBenchReport(outPath, report); err != nil || outPath == "-" {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-7s %-11s %12.0f ns/op %10d B/op %8d allocs/op %12.0f rows/s\n",
			r.Op, r.Path, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.RowsPerSec)
	}
	fmt.Printf("compiled Query cache: %d queries, %d compiles, %d program hits, %d misses, %d router hits, %d bitset bytes retained\n",
		cache.Queries, cache.ProgramCompiles, cache.ProgramCacheHits, cache.ProgramCacheMisses,
		cache.RouterCacheHits, cache.BitsetBytes)
	fmt.Printf("views-on QueryViews run: %d hits, %d misses, %d builds, %d/%d bytes of budget\n",
		viewSt.Hits, viewSt.Misses, viewSt.Builds, viewSt.Bytes, viewSt.BudgetBytes)
	fmt.Printf("delta Ingest run: %d queued, %d compacted (%d late) in %d compactions; reader p99 locked %s vs delta %s\n",
		ingestSt.Queued, ingestSt.Compacted, ingestSt.Late, ingestSt.Compactions,
		time.Duration(ingestSt.LockedP99Ns), time.Duration(ingestSt.DeltaP99Ns))
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// benchWorkload builds the click workload and the two-stage
// aggregation spec the root benchmarks use.
func benchWorkload(days, perDay int) (*workload.ClickObject, *spec.Spec, error) {
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 1, Start: caltime.Date(2000, 1, 1), Days: days,
		ClicksPerDay: perDay, Domains: 30, URLsPerDomain: 8,
	})
	if err != nil {
		return nil, nil, err
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		return nil, nil, err
	}
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env))
	if err != nil {
		return nil, nil, err
	}
	return obj, s, nil
}

func measure(op, path string, rows int, fn func(b *testing.B)) benchRow {
	res := testing.Benchmark(fn)
	ns := float64(res.NsPerOp())
	var rps float64
	if ns > 0 {
		rps = float64(rows) * 1e9 / ns
	}
	return benchRow{
		Op:          op,
		Path:        path,
		Iterations:  res.N,
		NsPerOp:     ns,
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		Rows:        rows,
		RowsPerSec:  rps,
	}
}
