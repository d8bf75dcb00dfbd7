package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dimred"
	"dimred/internal/core"
	"dimred/internal/workload"
)

// readerRate is the stream reader's schedule, in queries per second.
// Most of the reader's queries take the base path (a clock advance
// leaves the views stale until the next sync), about 5 ms each, so at
// 50 a second the reader is busy about a quarter of the time: a host
// slowdown of half does not push it into queueing, which would turn a
// short stall into a long tail. A 45-second run still collects about
// 2250 samples, enough for a p99 with 20 samples beyond it.
const readerRate = 50

// streamDayRate is the producer's schedule, in simulated days per
// second. Flat out the producer writes about 50 days a second on two
// CPUs beside the reader; at 20 it is busy well under half the time,
// so the reader's tail measures the write path's effect on readers
// rather than queueing for a CPU the producer never yields.
const streamDayRate = 20

// writeProgress bounds what a reader may see while the producer
// writes: every fact counted in visible has been folded, and no fact
// beyond ingested has been handed to Ingest.
type writeProgress struct{ ingested, visible atomic.Int64 }

// streamState is what the stream setup builds.
type streamState struct {
	obj     *workload.ClickObject
	now     dimred.Day
	history []fact
	days    [][]fact
	image   []byte
	viaBase []bool
}

// runStream: one producer replays a seeded out-of-order click stream
// (~30% late arrivals) day by day on top of a preloaded history of
// ~250 days: Ingest per arrival, FlushIngest, AdvanceTo the next day.
// One paced open-loop reader queries dashboard shapes at NOW, timed
// from each query's due time. The stream replays in episodes, each on a
// fresh copy restored from the setup's Save image, until the measured
// time is used up. At the end every fact must be folded, the cells must
// equal the interpreted reduction of the full arrival history, and no
// reader may have seen more clicks than had been ingested.
func runStream(r *run) error {
	o := r.opt
	histDays, perDay := 250, o.sized(300, 4)
	streamDays := o.sized(120, 12)

	st, err := setupReps(r, func(p int64) (*streamState, error) {
		return streamSetup(r, p, histDays, streamDays, perDay)
	})
	if err != nil {
		return err
	}
	seq, err := zipfMix(o.seed*7919+1, len(dashboardShapes), 1<<14)
	if err != nil {
		return err
	}

	var totalDays int
	var first string // the first episode's final cells
	var firstAt dimred.Day
	var w *dimred.Warehouse
	deadline := time.Now().Add(o.seconds)
	for ep := 1; ep == 1 || time.Now().Before(deadline); ep++ {
		gc(r)
		err := r.phase("episode", func(p int64) error {
			var err error
			if w, err = restore(r, p, st.image); err != nil {
				return err
			}
			qs, err := parseAll(r, p, w.Env(), dashboardShapes)
			if err != nil {
				return err
			}
			prog := &writeProgress{}
			prog.ingested.Store(int64(len(st.history)))
			prog.visible.Store(int64(len(st.history)))

			before := w.Metrics()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var n int
			var wall time.Duration
			rl := r.ls.newLane(fmt.Sprintf("reader%d", ep))
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, wall = pacedReader(r, rl, w, qs, seq, st.viaBase, prog, stop)
			}()
			facts, wr := ingestDays(r, p, w, st.days, time.Second/streamDayRate, prog)
			close(stop)
			wg.Wait()
			r.writes = append(r.writes, wr)
			r.reads = append(r.reads, round{n: float64(n), seconds: wall.Seconds(), samples: pool([]*lane{rl})})
			delta := rawDelta(before, w.Metrics())
			r.addRaw("stream", delta)
			totalDays += len(st.days)

			checkIngestDrained(r, delta, facts)
			if _, err := r.call(r.main, "Sync", p, 0, w.Sync); err != nil {
				return err
			}
			// The sync rebuilt the views from the shapes the reader asked.
			if _, err := viewCheck(r, p, w, qs, fmt.Sprintf("episode %d", ep)); err != nil {
				return err
			}
			got, err := materialize(w)
			if err != nil {
				return err
			}
			if ep == 1 {
				// The live heap after the first episode: later episodes
				// repeat its work, but their count depends on speed.
				r.set("heap_mb", heapMB(), 0, nil)
				first, firstAt = got.DumpCells(), w.Now()
				return nil
			}
			r.check(got.DumpCells() == first, "episode %d: final cells differ from episode 1's", ep)
			return nil
		})
		if err != nil {
			return err
		}
	}
	_ = r.phase("finish", func(int64) error {
		finalState(r, w)
		r.deriveLayers(r.raw["stream"], totalDays)
		return nil
	})
	return r.phase("verify", func(p int64) error { return streamOracle(r, p, st, firstAt, first) })
}

func streamSetup(r *run, p int64, histDays, streamDays, perDay int) (*streamState, error) {
	l := r.main
	g := l.begin("generate", p, 0)
	obj, arrivals, err := workload.BuildOutOfOrder(workload.OutOfOrderConfig{
		ClickConfig: workload.ClickConfig{Seed: r.opt.seed, Start: clickStart, Days: histDays + streamDays,
			ClicksPerDay: perDay, Domains: 30, URLsPerDomain: 8},
		LateFraction: 0.3,
		MeanLateDays: 20,
		MaxLateDays:  60,
	})
	l.end(g)
	if err != nil {
		return nil, err
	}
	st := &streamState{obj: obj, now: clickStart + dimred.Day(histDays), days: make([][]fact, streamDays)}
	for _, a := range arrivals {
		f := fact{a.Refs, a.Meas}
		switch i := int(a.Arrival - st.now); {
		case i < 0:
			st.history = append(st.history, f)
		case i < streamDays:
			st.days[i] = append(st.days[i], f)
		}
	}
	w, err := openClick(obj)
	if err != nil {
		return nil, err
	}
	if err := bulkLoad(r, p, w, &clickData{obj: obj, now: st.now, history: st.history}); err != nil {
		return nil, err
	}
	qs, err := parseAll(r, p, w.Env(), dashboardShapes)
	if err != nil {
		return nil, err
	}
	for _, k := range zipfWarm(len(qs), 48) {
		if _, _, err := query(r, l, p, 0, w, qs[k], st.now, false); err != nil {
			return nil, err
		}
	}
	d, err := r.call(l, "EnableViews", p, 0, func() error { return w.EnableViews(dimred.ViewConfig{}) })
	if err != nil {
		return nil, err
	}
	l.add("enable_ms", ms(d))
	// Which shapes the views cannot serve: those take the base path
	// (and QueryAtTraced in a traced run).
	served, err := viewCheck(r, p, w, qs, "setup")
	if err != nil {
		return nil, err
	}
	st.viaBase = make([]bool, len(qs))
	for k := range qs {
		st.viaBase[k] = !served[k]
	}
	if st.image, err = saveImage(r, p, w); err != nil {
		return nil, err
	}
	return st, nil
}

// viewCheck answers every shape at w's clock through QueryAt, which
// takes a fresh view when one can serve the shape, and through
// QueryAtTraced, which never consults views, and checks that the two
// answers have the same cells and that a view served at least one
// shape. It returns which shapes a view served.
func viewCheck(r *run, p int64, w *dimred.Warehouse, qs []dimred.CubeQuery, what string) ([]bool, error) {
	l := r.main
	o := l.begin("viewcheck", p, 0)
	defer l.end(o)
	served := make([]bool, len(qs))
	for k, q := range qs {
		hits := w.Metrics().ViewHits
		mo, _, err := query(r, l, o.id, 0, w, q, w.Now(), false)
		if err != nil {
			return nil, err
		}
		served[k] = w.Metrics().ViewHits > hits
		var base *dimred.MO
		if _, err := r.call(l, "QueryAtTraced", o.id, 0, func() (err error) {
			base, _, err = w.QueryAtTraced(q, w.Now())
			return err
		}); err != nil {
			return nil, err
		}
		r.check(r.answer(mo).DumpCells() == base.DumpCells(), "%s: %s: answer cells differ from the base path's",
			what, dashboardShapes[k])
	}
	r.check(slices.Contains(served, true), "%s: no dashboard shape was served from a view", what)
	return served, nil
}

// pacedReader queries the dashboard shapes at NOW on a fixed schedule
// of readerRate queries a second until stop closes, timing each query
// from its due time (so a stall also delays the queries queued behind
// it). Each answer must cover at least the clicks visible when it was
// sent and at most those ingested when it returned. It returns the
// queries completed and the time it ran.
func pacedReader(r *run, l *lane, w *dimred.Warehouse, qs []dimred.CubeQuery, seq []int, viaBase []bool,
	prog *writeProgress, stop <-chan struct{}) (int, time.Duration) {
	defer l.close()
	interval := time.Second / readerRate
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	n := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			o := l.begin("pace", 0, 0)
			timer.Reset(wait)
			select {
			case <-stop:
				l.end(o)
				return n, time.Since(start)
			case <-timer.C:
			}
			l.end(o)
		} else if i > 0 { // the first query goes out at once
			select {
			case <-stop:
				return n, time.Since(start)
			default:
			}
		}
		req := l.id<<32 | int64(i+1)
		ro := l.begin("request", 0, req)
		l.add("lag_ms", ms(time.Since(due)))
		k := seq[i%len(seq)]
		lo := prog.visible.Load()
		mo, _, err := query(r, l, ro.id, req, w, qs[k], w.Now(), r.opt.trace && viaBase[k])
		hi := prog.ingested.Load()
		l.add("query_ms", ms(time.Since(due)))
		if err == nil {
			co := l.begin("check", ro.id, req)
			got := numberOf(r.answer(mo))
			r.check(float64(lo) <= got && got <= float64(hi),
				"%s: reader saw %v clicks, want between %d visible and %d ingested", dashboardShapes[k], got, lo, hi)
			l.end(co)
		}
		l.end(ro)
		n++
	}
}

// streamOracle checks the warehouse's cells (dump, synchronized at
// clock t) against core.ReduceInterpreted over the full arrival
// history at t.
func streamOracle(r *run, p int64, st *streamState, t dimred.Day, dump string) error {
	o := r.main.begin("oracle", p, 0)
	defer r.main.end(o)
	env, err := clickEnv(st.obj)
	if err != nil {
		return err
	}
	acts, err := clickActionsFor(env)
	if err != nil {
		return err
	}
	sp, err := dimred.NewSpec(env, acts...)
	if err != nil {
		return err
	}
	mo := dimred.NewMO(st.obj.Schema)
	for _, f := range st.history {
		if _, err := mo.AddFact(f.refs, f.meas); err != nil {
			return err
		}
	}
	for _, day := range st.days {
		for _, f := range day {
			if _, err := mo.AddFact(f.refs, f.meas); err != nil {
				return err
			}
		}
	}
	want, err := core.ReduceInterpreted(sp, mo, t)
	if err != nil {
		return err
	}
	r.check(want.MO.DumpCells() == dump, "stream: warehouse cells differ from the interpreted reduction of the arrival history")
	return nil
}
