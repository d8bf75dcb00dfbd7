package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dimred"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// outDir receives the result file (and the span file of a traced
	// run); empty writes nothing.
	outDir string
	// scale multiplies every data size; 1 in real runs, small in the
	// harness self-tests.
	scale float64
	// setupReps is how many times setup runs; setup_s is the median.
	setupReps int
	// inject, when set, may replace a query answer before it is
	// checked; the self-tests use it to prove a wrong answer fails.
	inject func(*dimred.MO) *dimred.MO
}

// sized scales a data size, keeping it at least lo.
func (o options) sized(n, lo int) int {
	return max(lo, int(math.Round(float64(n)*o.scale)))
}

// metric is one reported value. N is the number of raw samples behind
// a quantile or mean; Base holds the counts a ratio was derived from.
type metric struct {
	Name  string             `json:"name"`
	Unit  string             `json:"unit"`
	Value float64            `json:"value"`
	N     int                `json:"samples,omitempty"`
	Base  map[string]float64 `json:"base,omitempty"`
}

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"ingest_facts_per_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"visible_p90_ms", "ms"},
	{"reduced_bytes_ratio", "ratio"},
	{"heap_mb", "MB"},
}

// layerMetrics are the per-layer metrics every workload reports, in
// BENCHMARK.json order. LAYERS.md names the end-to-end metric and
// workload each should move.
var layerMetrics = []metricDef{
	{"subcube.parse_us_p50", "us"},
	{"views.hit_ratio", "ratio"},
	{"views.bytes", "bytes"},
	{"views.enable_ms", "ms"},
	{"subcube.rows_scanned_per_query", "rows"},
	{"subcube.rows_kept_ratio", "ratio"},
	{"subcube.cubes_pruned_ratio", "ratio"},
	{"subcube.scan_ms_p50", "ms"},
	{"query.combine_ms_p50", "ms"},
	{"specexec.router_hits_per_query", "count"},
	{"specexec.probes_per_query", "count"},
	{"specexec.program_compiles", "count"},
	{"ingest.append_us_p50", "us"},
	{"ingest.late_ratio", "ratio"},
	{"warehouse.flush_ms_p50", "ms"},
	{"warehouse.compaction_ms_mean", "ms"},
	{"warehouse.sync_ms_mean", "ms"},
	{"subcube.sync_rows_scanned_per_fact", "rows"},
	{"subcube.syncs_per_day", "count"},
	{"views.builds_per_day", "count"},
	{"warehouse.publishes_per_day", "count"},
	{"warehouse.drain_waits_per_publish", "ratio"},
	{"sched.advance_ms_max", "ms"},
	{"warehouse.loadbatch_ms", "ms"},
	{"warehouse.save_ms", "ms"},
	{"warehouse.restore_ms", "ms"},
	{"warehouse.image_bytes", "bytes"},
	{"storage.live_rows", "rows"},
	{"storage.fact_bytes", "bytes"},
	{"runtime.alloc_kb_per_query", "KB"},
	{"runtime.alloc_kb_per_fact", "KB"},
	{"bench.reader_lag_ms_p99", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// hostInfo fingerprints the machine a result was measured on.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentHost() hostInfo {
	return hostInfo{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0)}
}

// run is the state of one benchmark run.
type run struct {
	opt  options
	ls   *laneSet
	main *lane

	// tracedMisses counts view-eligible queries sent through
	// QueryAtTraced in a traced run (see query).
	tracedMisses atomic.Int64
	attempted    atomic.Int64
	failed       atomic.Int64
	mu           sync.Mutex
	failures     []string

	// reads and writes are the measured rounds; the end-to-end figures
	// pool every one of them.
	reads, writes []round

	values map[string]metric
	// raw holds the Metrics() counter delta of each measured phase,
	// beside the ratios derived from it.
	raw map[string]map[string]int64
}

func newRun(opt options) *run {
	ls := &laneSet{epoch: time.Now(), tracing: opt.trace}
	r := &run{opt: opt, ls: ls, values: map[string]metric{}, raw: map[string]map[string]int64{}}
	r.main = ls.newLane("main")
	return r
}

// fail counts one failed call or check.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts a failure unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// call times one public call as a span under parent and counts it as
// attempted; an error counts as a failure and is returned.
func (r *run) call(l *lane, name string, parent, req int64, fn func() error) (time.Duration, error) {
	r.attempted.Add(1)
	o := l.begin(name, parent, req)
	err := fn()
	d := l.end(o)
	if err != nil {
		r.fail("%s: %v", name, err)
	}
	return d, err
}

// phase runs fn as a top-level span of the main lane.
func (r *run) phase(name string, fn func(parent int64) error) error {
	o := r.main.begin(name, 0, 0)
	defer r.main.end(o)
	return fn(o.id)
}

// set records a directly computed metric.
func (r *run) set(name string, v float64, n int, base map[string]float64) {
	r.values[name] = metric{Value: v, N: n, Base: base}
}

// answer passes a query answer through the self-test injection hook.
func (r *run) answer(mo *dimred.MO) *dimred.MO {
	if r.opt.inject != nil {
		return r.opt.inject(mo)
	}
	return mo
}

// rawDelta is the counter delta between two Metrics() snapshots:
// counters and histogram counts/sums subtracted, gauges taken from the
// later snapshot.
func rawDelta(before, after dimred.Metrics) map[string]int64 {
	out := map[string]int64{}
	vb, va := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Int64:
			if gaugeFields[name] {
				out[name] = fa.Int()
			} else {
				out[name] = fa.Int() - fb.Int()
			}
		case reflect.Struct: // histogram snapshot
			out[name+".Count"] = fa.FieldByName("Count").Int() - fb.FieldByName("Count").Int()
			out[name+".SumNs"] = fa.FieldByName("Sum").Int() - fb.FieldByName("Sum").Int()
		}
	}
	return out
}

// gaugeFields are the Metrics fields that hold a level, not a count.
var gaugeFields = map[string]bool{"BitsetBytes": true, "ViewBytes": true, "IngestPending": true,
	"SnapshotEpoch": true, "SnapshotsRetained": true, "LiveRows": true, "LiveBytes": true,
	"DeadRows": true, "DimBytes": true, "CubeCount": true}

// addRaw accumulates a phase delta: counters add, gauges overwrite.
func (r *run) addRaw(phase string, d map[string]int64) {
	acc := r.raw[phase]
	if acc == nil {
		acc = map[string]int64{}
		r.raw[phase] = acc
	}
	for k, v := range d {
		if gaugeFields[k] {
			acc[k] = v
		} else {
			acc[k] += v
		}
	}
}

// allocated returns the bytes allocated on the heap since the program
// started. ReadMemStats stops the world briefly; it is called only
// between timed intervals.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// deriveLayers fills the counter-derived per-layer metrics from the
// raw delta d of the measured phases, over days simulated days of
// writes; each ratio keeps its base counts.
func (r *run) deriveLayers(d map[string]int64, days int) {
	f := func(k string) float64 { return float64(d[k]) }
	per := func(name, num, den string) {
		r.set(name, ratio(f(num), f(den)), 0, map[string]float64{num: f(num), den: f(den)})
	}
	perDay := func(name, num string) {
		r.set(name, ratio(f(num), float64(days)), 0, map[string]float64{num: f(num), "days": float64(days)})
	}
	meanMs := func(name, hist string) {
		c, s := f(hist+".Count"), f(hist+".SumNs")
		r.set(name, ratio(s, c)/1e6, int(c), map[string]float64{hist + ".Count": c, hist + ".SumNs": s})
	}
	traced := float64(r.tracedMisses.Load())
	r.set("views.hit_ratio", ratio(f("ViewHits"), f("ViewHits")+f("ViewMisses")+traced), 0,
		map[string]float64{"ViewHits": f("ViewHits"), "ViewMisses": f("ViewMisses"), "TracedViewEligible": traced})
	r.set("views.bytes", f("ViewBytes"), 0, nil)
	per("subcube.rows_scanned_per_query", "RowsScanned", "Queries")
	per("subcube.rows_kept_ratio", "RowsSelected", "RowsScanned")
	cc := f("CubesPruned") + f("CubesConsulted")
	r.set("subcube.cubes_pruned_ratio", ratio(f("CubesPruned"), cc), 0,
		map[string]float64{"CubesPruned": f("CubesPruned"), "CubesConsulted": f("CubesConsulted")})
	per("specexec.router_hits_per_query", "RouterCacheHits", "Queries")
	per("specexec.probes_per_query", "ProgramProbes", "Queries")
	r.set("specexec.program_compiles", f("ProgramCompiles"), 0, nil)
	per("ingest.late_ratio", "IngestLate", "IngestCompacted")
	meanMs("warehouse.compaction_ms_mean", "CompactionDuration")
	meanMs("warehouse.sync_ms_mean", "SyncDuration")
	per("subcube.sync_rows_scanned_per_fact", "SyncScanned", "IngestCompacted")
	perDay("subcube.syncs_per_day", "Syncs")
	perDay("views.builds_per_day", "ViewBuilds")
	perDay("warehouse.publishes_per_day", "SnapshotPublishes")
	per("warehouse.drain_waits_per_publish", "SnapshotDrainWaits", "SnapshotPublishes")
}

// finish turns the lanes' raw samples into metrics, fills trace
// figures, and returns the end-to-end and per-layer lists.
func (r *run) finish() (e2e, layers []metric, spans []span) {
	all := pool(r.ls.lanes)
	var laneWall float64
	coverage := 1.0
	for _, l := range r.ls.lanes {
		spans = append(spans, l.spans...)
		laneWall += float64(l.stop.Sub(l.start).Nanoseconds())
		if r.opt.trace {
			coverage = math.Min(coverage, l.coverage())
		}
	}
	q := func(name, series string, p float64) {
		s := all[series]
		r.set(name, s.quantile(p), len(s), nil)
	}
	q("setup_s", "setup_s", 0.5)
	rq := func(name string, rs []round, series string, p float64) {
		s := poolRounds(rs, series)
		r.set(name, s.quantile(p), len(s), map[string]float64{"rounds": float64(len(rs))})
	}
	rq("query_p50_ms", r.reads, "query_ms", 0.5)
	rq("query_p90_ms", r.reads, "query_ms", 0.9)
	rq("visible_p50_ms", r.writes, "visible_ms", 0.5)
	rq("visible_p90_ms", r.writes, "visible_ms", 0.9)
	// A rate is the rounds' total count over their total time.
	rate := func(name, count string, rs []round) (n, secs, alloc float64) {
		for _, x := range rs {
			n, secs, alloc = n+x.n, secs+x.seconds, alloc+float64(x.alloc)
		}
		r.set(name, ratio(n, secs), int(n), map[string]float64{count: n, "seconds": secs, "rounds": float64(len(rs))})
		return n, secs, alloc
	}
	queries, _, qAlloc := rate("queries_per_s", "queries", r.reads)
	facts, _, fAlloc := rate("ingest_facts_per_s", "facts", r.writes)
	if r.opt.workload != "stream" {
		// A stream episode's reader allocates during the episode, so
		// its allocation is counted per fact, not per query.
		r.set("runtime.alloc_kb_per_query", ratio(qAlloc, queries)/1024, 0,
			map[string]float64{"alloc_bytes": qAlloc, "queries": queries})
	}
	r.set("runtime.alloc_kb_per_fact", ratio(fAlloc, facts)/1024, 0,
		map[string]float64{"alloc_bytes": fAlloc, "facts": facts})
	q("subcube.parse_us_p50", "parse_us", 0.5)
	q("views.enable_ms", "enable_ms", 0.5)
	q("subcube.scan_ms_p50", "scan_ms", 0.5)
	q("query.combine_ms_p50", "combine_ms", 0.5)
	q("ingest.append_us_p50", "append_us", 0.5)
	q("warehouse.flush_ms_p50", "flush_ms", 0.5)
	q("warehouse.loadbatch_ms", "loadbatch_ms", 0.5)
	q("warehouse.save_ms", "save_ms", 0.5)
	q("warehouse.restore_ms", "restore_ms", 0.5)
	q("bench.reader_lag_ms_p99", "lag_ms", 0.99)
	adv := all["advance_ms"]
	r.set("sched.advance_ms_max", adv.max(), len(adv), nil)

	// A quantile of an empty series is NaN; report such layers as 0
	// (the workload does not exercise them) with 0 samples.
	for k, m := range r.values {
		if math.IsNaN(m.Value) {
			m.Value = 0
			r.values[k] = m
		}
	}
	if r.opt.trace {
		fillSelfTimes(spans)
		cost := spanCost()
		r.set("trace.coverage", coverage, len(r.ls.lanes), nil)
		r.set("trace.overhead_pct", 100*ratio(cost*float64(len(spans)), laneWall), len(spans),
			map[string]float64{"span_cost_ns": cost, "spans": float64(len(spans)), "lane_wall_ns": laneWall})
	} else {
		r.set("trace.coverage", 0, 0, nil)
		r.set("trace.overhead_pct", 0, 0, nil)
	}
	pick := func(defs []metricDef) []metric {
		var out []metric
		for _, d := range defs {
			m := r.values[d.name]
			m.Name, m.Unit = d.name, d.unit
			out = append(out, m)
		}
		return out
	}
	return pick(e2eMetrics), pick(layerMetrics), spans
}

// round is one stretch of a measured phase: a read window, a write
// round, or a stream episode's reads or writes.
type round struct {
	// n queries or facts completed in seconds; alloc is the bytes the
	// process allocated meanwhile.
	n, seconds float64
	alloc      uint64
	samples    map[string]samples
}

func (x round) rate() float64 { return ratio(x.n, x.seconds) }

// pool merges the lanes' samples.
func pool(lanes []*lane) map[string]samples {
	out := map[string]samples{}
	for _, l := range lanes {
		for k, v := range l.samples {
			out[k] = append(out[k], v...)
		}
	}
	return out
}

func poolRounds(rs []round, series string) samples {
	var out samples
	for _, x := range rs {
		out = append(out, x.samples[series]...)
	}
	return out
}

// resultFile is everything one run measured, written to the output
// directory.
type resultFile struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Failures  []string `json:"failures,omitempty"`
	// QueryTails are the query p99 (unbounded: LAYERS.md says why) and
	// the highest percentile with at least ten samples beyond it.
	QueryTails []metric                    `json:"query_tails,omitempty"`
	EndToEnd   []metric                    `json:"end_to_end"`
	PerLayer   []metric                    `json:"per_layer"`
	Raw        map[string]map[string]int64 `json:"raw_metrics_delta"`
	// ReadRounds and WriteRounds are every round's rate, in order.
	ReadRounds  []float64     `json:"read_round_rates"`
	WriteRounds []float64     `json:"write_round_rates"`
	Spans       []spanSummary `json:"span_summary,omitempty"`
}

// report prints the human-readable summary and the final JSON line to
// w, and writes the result (and span) files.
func (r *run) report(w io.Writer) error {
	r.main.close()
	e2e, layers, spans := r.finish()
	res := resultFile{
		Workload: r.opt.workload, Seed: r.opt.seed, Seconds: r.opt.seconds.Seconds(), Trace: r.opt.trace,
		Host: currentHost(), Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Failures: r.failures, EndToEnd: e2e, PerLayer: layers, Raw: r.raw,
	}
	for _, x := range r.reads {
		res.ReadRounds = append(res.ReadRounds, x.rate())
	}
	for _, x := range r.writes {
		res.WriteRounds = append(res.WriteRounds, x.rate())
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.ErrorRate = ratio(float64(res.Failed), float64(res.Attempted))
	if qs := r.querySamples(); len(qs) > 0 {
		for _, p := range []float64{0.99, supportedTail(len(qs))} {
			if p > 0 {
				res.QueryTails = append(res.QueryTails, metric{Name: "query_" + percentLabel(p) + "_ms", Unit: "ms",
					Value: qs.quantile(p), N: len(qs)})
			}
		}
	}
	if r.opt.trace {
		res.Spans = summarizeSpans(spans)
	}

	h := res.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v host=%s %s/%s NumCPU=%d GOMAXPROCS=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, h.GoVersion, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS)
	for _, m := range e2e {
		fmt.Fprintf(w, "e2e    %-36s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for i, m := range res.QueryTails {
		note := "(not bounded: see LAYERS.md)"
		if i > 0 {
			note = "(highest percentile with >=10 samples beyond)"
		}
		fmt.Fprintf(w, "e2e    %-36s %14.6g %-6s n=%d %s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
	fmt.Fprintf(w, "e2e    %-36s %14.6g %-6s failed=%d attempted=%d\n", "error_rate", res.ErrorRate, "ratio", res.Failed, res.Attempted)
	for _, m := range layers {
		fmt.Fprintf(w, "layer  %-36s %14.6g %-6s n=%d %s\n", m.Name, m.Value, m.Unit, m.N, fmtBase(m.Base))
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAIL   %s\n", f)
	}

	if r.opt.outDir != "" {
		base := filepath.Join(r.opt.outDir, fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Seed, b2i(res.Trace)))
		if err := writeJSON(base+".json", res); err != nil {
			return err
		}
		if r.opt.trace {
			if err := writeJSON(base+"-spans.json", spans); err != nil {
				return err
			}
		}
	}

	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]map[string]any{}}
	shown := e2e
	if r.opt.trace {
		shown = layers
	}
	for _, m := range shown {
		line.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (r *run) querySamples() samples { return poolRounds(r.reads, "query_ms") }

func fmtBase(b map[string]float64) string {
	if len(b) == 0 {
		return ""
	}
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "base:"
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%g", k, b[k])
	}
	return s
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
