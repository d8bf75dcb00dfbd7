package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dimred"
)

func TestQuantileNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (samples{7}).quantile(0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
	if got := (samples{}).quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
	if s[0] != 5 {
		t.Error("quantile sorted its receiver in place")
	}
	if got := (samples{1, 8, 6}).max(); got != 8 {
		t.Errorf("max = %v, want 8", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := percentLabel(0.999); got != "p99.9" {
		t.Errorf("percentLabel(0.999) = %q", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps 2 (another lane)
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 10, End: 20},
	}
	fillSelfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestLaneCoverage(t *testing.T) {
	l := newLane("t", 1, time.Now(), true)
	o := l.begin("top", 0, 0)
	time.Sleep(20 * time.Millisecond)
	c := l.begin("child", o.id, 0)
	l.end(c)
	l.end(o)
	l.close()
	if cov := l.coverage(); cov < 0.9 || cov > 1 {
		t.Errorf("coverage = %v, want close to 1", cov)
	}
	if len(l.spans) != 2 || l.spans[0].Parent != o.id {
		t.Errorf("spans = %+v", l.spans)
	}
	off := newLane("t", 1, time.Now(), false)
	off.end(off.begin("x", 0, 0))
	if len(off.spans) != 0 {
		t.Error("an untraced lane recorded spans")
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// tinyRun runs a workload at a small scale and returns the parsed last
// line of its output.
func tinyRun(t *testing.T, workload string, trace bool, inject func(*dimred.MO) *dimred.MO) (line struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}, out string) {
	t.Helper()
	r := newRun(options{workload: workload, seed: 3, seconds: 300 * time.Millisecond, trace: trace,
		scale: 0.02, setupReps: 2, inject: inject})
	if err := workloads[workload](r); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := r.report(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	if len(keys) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatal(err)
	}
	return line, out
}

func TestTinyWorkloads(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			line, out := tinyRun(t, name, trace, nil)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, line.Correct, line.Failed, line.Attempted, out)
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
					continue
				}
				if m["unit"] != d.unit {
					t.Errorf("%s: metric %s unit %v, want %s", name, d.name, m["unit"], d.unit)
				}
				v, _ := m["value"].(float64)
				if !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
				if trace && d.name == "trace.coverage" && (v < 0.95 || v > 1) {
					t.Errorf("%s: top-level spans cover %v of a lane's wall time, want within 5%%", name, v)
				}
			}
		}
	}
}

func TestInjectedWrongAnswerFails(t *testing.T) {
	for name := range workloads {
		var injected atomic.Bool
		wrong := func(mo *dimred.MO) *dimred.MO {
			if injected.CompareAndSwap(false, true) {
				return dimred.NewMO(mo.Schema())
			}
			return mo
		}
		line, out := tinyRun(t, name, false, wrong)
		if !injected.Load() {
			t.Errorf("%s: no answer reached the injection point", name)
		}
		if line.Correct || line.Failed == 0 {
			t.Errorf("%s: an injected wrong answer passed the checks (failed=%d)\n%s", name, line.Failed, out)
		}
	}
}
