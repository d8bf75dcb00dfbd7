package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dimred"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setupReps runs setup opt.setupReps times, each as a top-level
// "setup" span after an untimed collection of the previous attempt's
// garbage, records every duration as a setup_s sample, and returns the
// last attempt's state.
func setupReps[T any](r *run, setup func(parent int64) (T, error)) (T, error) {
	var st T
	for rep := 0; rep < r.opt.setupReps; rep++ {
		var zero T
		st = zero // let gc reclaim the previous attempt's warehouse
		gc(r)
		t0 := time.Now()
		err := r.phase("setup", func(p int64) error {
			var err error
			st, err = setup(p)
			return err
		})
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		r.main.add("setup_s", time.Since(t0).Seconds())
	}
	return st, nil
}

// gc collects garbage outside any timed phase, so each measured phase
// starts from the same heap state.
func gc(r *run) { _ = r.phase("gc", func(int64) error { runtime.GC(); return nil }) }

// bulkLoad loads data's history into w at the stream's first day and
// advances the clock to NOW, which synchronizes it.
func bulkLoad(r *run, p int64, w *dimred.Warehouse, data *clickData) error {
	l := r.main
	if _, err := r.call(l, "AdvanceTo", p, 0, func() error { return w.AdvanceTo(clickStart) }); err != nil {
		return err
	}
	d, err := r.call(l, "LoadBatch", p, 0, func() error { return w.LoadBatch(loadRows(data.history)) })
	if err != nil {
		return err
	}
	l.add("loadbatch_ms", ms(d))
	_, err = r.call(l, "AdvanceTo", p, 0, func() error { return w.AdvanceTo(data.now) })
	return err
}

// saveImage saves w and returns the image.
func saveImage(r *run, p int64, w *dimred.Warehouse) ([]byte, error) {
	var buf bytes.Buffer
	d, err := r.call(r.main, "Save", p, 0, func() error { return w.Save(&buf) })
	if err != nil {
		return nil, err
	}
	r.main.add("save_ms", ms(d))
	r.set("warehouse.image_bytes", float64(buf.Len()), 0, nil)
	return buf.Bytes(), nil
}

// restore loads a warehouse from a saved image.
func restore(r *run, p int64, image []byte) (*dimred.Warehouse, error) {
	var w *dimred.Warehouse
	d, err := r.call(r.main, "LoadWarehouse", p, 0, func() (err error) {
		w, _, err = dimred.LoadWarehouse(bytes.NewReader(image))
		return err
	})
	if err != nil {
		return nil, err
	}
	r.main.add("restore_ms", ms(d))
	return w, nil
}

// parseAll parses query texts against env, timing each ParseQuery.
func parseAll(r *run, parent int64, env *dimred.Env, srcs []string) ([]dimred.CubeQuery, error) {
	out := make([]dimred.CubeQuery, len(srcs))
	for i, src := range srcs {
		d, err := r.call(r.main, "ParseQuery", parent, 0, func() (err error) {
			out[i], err = dimred.ParseQuery(src, env)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.main.add("parse_us", us(d))
	}
	return out, nil
}

// closedLoop runs clients closed-loop until the deadline: each client
// goroutine, on its own lane, calls body for its next request as soon
// as the previous one returns. next[c] is client c's next request
// index, carried across calls. It returns the lanes the clients
// recorded on and the requests completed.
func closedLoop(r *run, deadline time.Time, next []int, body func(l *lane, client, i int, req int64)) ([]*lane, int) {
	lanes := make([]*lane, len(next))
	var wg sync.WaitGroup
	for c := range next {
		l := r.ls.newLane(fmt.Sprintf("client%d", c))
		lanes[c] = l
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer l.close()
			for ; time.Now().Before(deadline); next[c]++ {
				body(l, c, next[c], l.id<<32|int64(next[c]+1))
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for _, l := range lanes {
		n += len(l.samples["query_ms"])
	}
	return lanes, n
}

// query runs one prepared query on lane l: QueryAt, or QueryAtTraced
// when traced is set (which also samples the base path's scan and
// combine stages). It returns the answer and the call's duration.
func query(r *run, l *lane, parent, req int64, w *dimred.Warehouse, q dimred.CubeQuery, at dimred.Day, traced bool) (*dimred.MO, time.Duration, error) {
	var mo *dimred.MO
	var tr *dimred.QueryTrace
	name := "QueryAt"
	if traced {
		name = "QueryAtTraced"
	}
	if traced && q.ViewEligible() {
		// QueryAtTraced does no view accounting; the shape would have
		// been a view miss.
		r.tracedMisses.Add(1)
	}
	d, err := r.call(l, name, parent, req, func() error {
		var err error
		if traced {
			mo, tr, err = w.QueryAtTraced(q, at)
		} else {
			mo, err = w.QueryAt(q, at)
		}
		return err
	})
	if tr != nil {
		for _, st := range tr.Stages {
			switch st.Name {
			case "parallel subcube scan":
				l.add("scan_ms", ms(st.Duration))
			case "combine + final aggregate":
				l.add("combine_ms", ms(st.Duration))
			}
		}
	}
	if err != nil {
		return nil, d, err
	}
	return mo, d, nil
}

// expected is the reference answer of one query.
type expected struct {
	dump string
	fp   uint64
}

func expect(mo *dimred.MO) expected { return expected{mo.DumpCells(), fingerprint(mo)} }

// checker verifies a client's answers: every answer by fingerprint,
// and the first answer of each query in full by DumpCells.
type checker struct {
	r    *run
	want []expected
	seen []bool
}

func newChecker(r *run, want []expected) *checker {
	return &checker{r: r, want: want, seen: make([]bool, len(want))}
}

func (c *checker) verify(l *lane, parent, req int64, k int, mo *dimred.MO, what string) {
	o := l.begin("check", parent, req)
	defer l.end(o)
	if fingerprint(mo) != c.want[k].fp {
		c.r.fail("%s: answer fingerprint differs from the reference", what)
		return
	}
	if !c.seen[k] {
		c.seen[k] = true
		c.r.check(mo.DumpCells() == c.want[k].dump, "%s: answer cells differ from the reference", what)
	}
}

// ingestDays drives daily writes into w: for each day, one Ingest per
// fact, then FlushIngest, then AdvanceTo the next day. A day is visible
// from its first Ingest until its FlushIngest returns. With pace > 0
// day i starts no earlier than i paces after the first (open loop: a
// late day starts at once); with pace 0 each day starts as soon as the
// previous one ends. It returns the write round: the facts written,
// the time spent writing (per day, from its first Ingest until its
// AdvanceTo returns), the bytes allocated meanwhile (by every
// goroutine), and the visibility samples. progress, when set, is advanced as facts
// are ingested and days become visible, for readers that bound what
// they may see.
func ingestDays(r *run, parent int64, w *dimred.Warehouse, days [][]fact, pace time.Duration, progress *writeProgress) (facts int, rd round) {
	l := r.main
	a0 := allocated()
	var visible samples
	var busy time.Duration
	start := time.Now()
	for i, batch := range days {
		if wait := time.Until(start.Add(time.Duration(i) * pace)); wait > 0 {
			o := l.begin("pace", parent, 0)
			time.Sleep(wait)
			l.end(o)
		}
		day := w.Now()
		o := l.begin("day", parent, 0)
		dayStart := time.Now()
		for _, f := range batch {
			if progress != nil {
				progress.ingested.Add(1)
			}
			d, _ := r.call(l, "Ingest", o.id, 0, func() error { return w.Ingest(f.refs, f.meas) })
			l.add("append_us", us(d))
		}
		d, err := r.call(l, "FlushIngest", o.id, 0, w.FlushIngest)
		l.add("flush_ms", ms(d))
		if err == nil {
			visible = append(visible, ms(time.Since(dayStart)))
			if progress != nil {
				progress.visible.Store(progress.ingested.Load())
			}
		}
		facts += len(batch)
		d, _ = r.call(l, "AdvanceTo", o.id, 0, func() error { return w.AdvanceTo(day + 1) })
		l.add("advance_ms", ms(d))
		busy += l.end(o)
	}
	return facts, round{n: float64(facts), seconds: busy.Seconds(), alloc: allocated() - a0,
		samples: map[string]samples{"visible_ms": visible}}
}

// finalState records the end-of-workload storage figures: reduced
// bytes over unreduced bytes, live rows and fact bytes.
func finalState(r *run, w *dimred.Warehouse) {
	st := w.Stats()
	r.set("reduced_bytes_ratio", ratio(float64(st.FactBytes), float64(st.UnreducedBytes)), 0,
		map[string]float64{"FactBytes": float64(st.FactBytes), "UnreducedBytes": float64(st.UnreducedBytes)})
	r.set("storage.live_rows", float64(st.Rows), 0, nil)
	r.set("storage.fact_bytes", float64(st.FactBytes), 0, nil)
}

// checkIngestDrained verifies that every ingested fact was folded: the
// delta's IngestQueued equals IngestCompacted equals the facts written,
// and nothing is pending.
func checkIngestDrained(r *run, d map[string]int64, facts int) {
	r.check(d["IngestQueued"] == int64(facts) && d["IngestCompacted"] == int64(facts),
		"ingest: queued %d, compacted %d, want both %d", d["IngestQueued"], d["IngestCompacted"], facts)
	r.check(d["IngestPending"] == 0, "ingest: %d facts still pending", d["IngestPending"])
}
