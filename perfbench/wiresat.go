package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ftoa/internal/sim"
	"ftoa/internal/wire"
)

// wire-saturate: a closed loop over the binary wire protocol against a
// 4x4 greedy Strict server with a 5 s halo and no WAL. Two connections
// each keep one batch of 128 hotspot arrivals in flight.
const (
	wireConns    = 2
	wireBatch    = 128
	wirePool     = 256 * wireBatch // arrivals per connection, cycled
	wirePatience = 1.0             // s; short beside the run, so the live population levels off early
	wireExpiry   = 1.0
	warmup       = time.Second // load before the measured window
	// assignWindow is the width of the windows assignment latency is
	// taken over: half a second holds over a thousand matches.
	assignWindow = 500 * time.Millisecond
)

var wireServerArgs = []string{"-shards", "4x4", "-halo", "5", "-alg", "greedy", "-mode", "strict"}

// sentAck is one acknowledged admission as a load connection saw it.
type sentAck struct {
	side int
	r    receipt
	a    ack
}

// connLog is what one load connection measured.
type connLog struct {
	rtts              []float64 // batch round trips sent in the measured window, ms
	okInWindow        int64
	done              []batchDone
	attempted, failed int64
	acks              []sentAck
	err               error
}

// batchDone is when a batch's reply arrived (ns since the run's start)
// and how many of its admissions were acknowledged OK.
type batchDone struct {
	at int64
	ok int
}

func runWireSaturate(ctx context.Context, e *env) (*outcome, error) {
	boots, err := bootTimes(ctx, e, wireServerArgs, bootsBefore)
	if err != nil {
		return nil, err
	}
	s, _, err := e.procs.start(ctx, e.serverBin, wireServerArgs)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	col := &collector{t0: t0}
	var clients [wireConns]*wire.Client
	for i := range clients {
		if clients[i], err = wire.Dial(s.Wire); err != nil {
			return nil, err
		}
		defer clients[i].Close()
	}
	// The conservation check needs every terminal outcome, so the first
	// load connection also follows the merged stream from cursor 0.
	if err := clients[0].Subscribe(0, col.onEvents, col.onGone); err != nil {
		return nil, err
	}

	end := warmup + e.seconds
	logs := make([]connLog, wireConns)
	var acked atomic.Int64
	stopSampling := make(chan struct{})
	sampled := make(chan []rssSample, 1)
	go func() { sampled <- sampleRSS(s, &acked, t0, warmup, stopSampling) }()
	var wg sync.WaitGroup
	for i := range clients {
		pool := genArrivals(newRNG(e.seed, streamWireConn0+uint64(i)), wirePool, "hotspot", wirePatience, wireExpiry)
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = closedLoop(ctx, clients[i], pool, t0, end, &acked)
		}()
	}
	wg.Wait()
	close(stopSampling)
	rss := <-sampled
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	o := &outcome{values: map[string]float64{}}
	l := &ledger{}
	var rtts []float64
	var done []batchDone
	var okInWindow int64
	lastDeadline := 0.0
	for i := range logs {
		lg := &logs[i]
		if lg.err != nil {
			return nil, fmt.Errorf("connection %d: %w", i, lg.err)
		}
		o.attempted += lg.attempted
		o.failed += lg.failed
		okInWindow += lg.okInWindow
		rtts = append(rtts, lg.rtts...)
		done = append(done, lg.done...)
		for _, sa := range lg.acks {
			if err := l.add(sa.side, sa.r, sa.a); err != nil && o.checkErr == nil {
				o.checkErr = err
			}
			lastDeadline = max(lastDeadline, sa.a.at+sa.a.window)
		}
	}
	st, err := drain(ctx, s, clients[0], col, lastDeadline)
	if err != nil {
		return nil, err
	}
	peak, err := s.memStatus("VmHWM")
	if err != nil {
		return nil, err
	}
	e.procs.stop(s)

	evs := col.evs
	tl, err := checkConservation(l, evs, math.Inf(1))
	if err == nil {
		err = checkFeasible(l, evs, velocity, true)
	}
	if err == nil {
		err = checkServerCounts(st, l.n, tl)
	}
	if err == nil && st.Wire.ProtocolErrors != 0 {
		err = fmt.Errorf("check: server counted %d protocol errors", st.Wire.ProtocolErrors)
	}
	if o.checkErr == nil {
		o.checkErr = err
	}

	memPerAdmit := rssSlope(rss)
	if math.IsNaN(memPerAdmit) {
		return nil, fmt.Errorf("%d resident-set samples over the measured window: too few for a slope", len(rss))
	}
	after, err := bootTimes(ctx, e, wireServerArgs, bootRounds-bootsBefore)
	if err != nil {
		return nil, err
	}
	setup := median(append(boots, after...))
	p50, p99 := percentiles(rtts)
	a50, a99 := windowed(assignLatency(l, evs, int64(warmup)), int64(warmup), int64(assignWindow))
	v := o.values
	v["setup_s"] = setup
	v["admit_per_s"] = perSecondMedian(done, e.seconds)
	v["admit_p50_ms"], v["admit_p99_ms"] = p50, p99
	v["assign_p50_ms"], v["assign_p99_ms"] = a50, a99
	v["mem_b_per_admit"] = memPerAdmit
	v["server_rss_mb"] = peak / (1 << 20)
	v["matched_pct"] = 100 * float64(2*tl.matches) / float64(max(1, l.n))
	// Without a WAL a restart has nothing to replay: it is a boot, so
	// recovery time is the set-up time.
	v["recover_s"] = setup
	logf("wire-saturate: %d admissions acknowledged (%d in the window, %d batches timed), %d matches, %d expiries; stats: %d wire batches, %d deduped, %d ring refusals",
		l.n, okInWindow, len(rtts), tl.matches, tl.expiries, st.Wire.Batches, st.Wire.Deduped, st.Wire.RingRefusals)
	return o, nil
}

// closedLoop keeps one batch in flight on cl until end (since t0),
// cycling through pool. Every request of every batch counts as
// attempted; a BUSY or ERR result counts as failed. OK results are also
// added to acked, if set, as their replies arrive.
func closedLoop(ctx context.Context, cl *wire.Client, pool []wire.Request, t0 time.Time, end time.Duration, acked *atomic.Int64) connLog {
	var lg connLog
	reqs := make([]wire.Request, wireBatch)
	for off := 0; ctx.Err() == nil; off = (off + wireBatch) % len(pool) {
		sent := time.Since(t0)
		if sent >= end {
			break
		}
		copy(reqs, pool[off:off+wireBatch]) // fresh requests: Seq 0, so Do assigns new tokens
		res, err := cl.Do(reqs)
		if err != nil {
			lg.err = err
			return lg
		}
		done := time.Since(t0)
		inWindow := sent >= warmup
		if inWindow {
			lg.rtts = append(lg.rtts, ms(int64(done-sent)))
		}
		ok := 0
		for j := range res {
			lg.attempted++
			r := &res[j]
			if r.Status != wire.StatusOK {
				lg.failed++
				continue
			}
			ok++
			if inWindow {
				lg.okInWindow++
			}
			side := sideWorker
			if reqs[j].Kind == wire.ReqAddTask {
				side = sideTask
			}
			lg.acks = append(lg.acks, sentAck{side, receipt{int32(r.Shard), int32(r.Local)},
				ack{x: reqs[j].X, y: reqs[j].Y, at: r.Time, window: reqs[j].Window, due: int64(sent)}})
		}
		lg.done = append(lg.done, batchDone{int64(done), ok})
		if acked != nil {
			acked.Add(int64(ok))
		}
	}
	return lg
}

// rssSample is the server's resident set, in bytes, when acked
// admissions had been acknowledged.
type rssSample struct{ acked, rss float64 }

// sampleRSS reads the server's resident set and the admissions
// acknowledged so far every 100 ms, from from (since t0) until stop is
// closed.
func sampleRSS(s *server, acked *atomic.Int64, t0 time.Time, from time.Duration, stop <-chan struct{}) []rssSample {
	var out []rssSample
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		if time.Since(t0) < from {
			continue
		}
		n := acked.Load()
		if rss, err := s.memStatus("VmRSS"); err == nil {
			out = append(out, rssSample{float64(n), rss})
		}
	}
}

// rssSlope is the least-squares slope of resident set over acknowledged
// admissions: the bytes the server holds per admission. The server keeps
// every admitted object until its next arena retirement (-retire, a
// minute by default, longer than a run), so its resident set grows with
// the admissions a run makes; its peak measures the run's throughput as
// much as its memory. The slope does not depend on the throughput, and
// a fit over the whole measured window smooths the steps in which the
// Go heap grows.
func rssSlope(xs []rssSample) float64 {
	var mx, my float64
	for _, x := range xs {
		mx += x.acked
		my += x.rss
	}
	n := float64(len(xs))
	mx, my = mx/n, my/n
	var sxy, sxx float64
	for _, x := range xs {
		sxy += (x.acked - mx) * (x.rss - my)
		sxx += (x.acked - mx) * (x.acked - mx)
	}
	if sxx == 0 {
		return math.NaN()
	}
	return sxy / sxx
}

// checkServerCounts cross-checks the server's own /stats totals against
// what the benchmark acknowledged and observed in the stream.
func checkServerCounts(st *serveStats, acked int, tl tally) error {
	owned := st.Workers + st.Tasks - st.GhostWorkers - st.GhostTasks
	switch {
	case owned != acked:
		return fmt.Errorf("check: server admitted %d objects, benchmark acknowledged %d", owned, acked)
	case st.Matches != tl.matches:
		return fmt.Errorf("check: server counted %d matches, stream carried %d", st.Matches, tl.matches)
	}
	return nil
}

// assignLatency returns, for every match whose later endpoint was due at
// or after from (ns since the run's start), the time from that due time
// to when the subscriber received the match.
func assignLatency(l *ledger, evs []termEvent, from int64) []timed {
	var lat []timed
	for i := range evs {
		ev := &evs[i]
		if ev.kind != sim.EventMatch {
			continue
		}
		w, t := l.get(sideWorker, ev.w), l.get(sideTask, ev.t)
		if w == nil || t == nil {
			continue
		}
		due := max(w.due, t.due)
		if due < from {
			continue
		}
		lat = append(lat, timed{due, ms(ev.recv - due)})
	}
	return lat
}

// perSecondMedian is the median over the measured window's whole seconds
// of the OK admissions acknowledged in each.
func perSecondMedian(done []batchDone, seconds time.Duration) float64 {
	counts := make([]float64, int(seconds/time.Second))
	for _, d := range done {
		if k := (d.at - int64(warmup)) / int64(time.Second); k >= 0 && k < int64(len(counts)) {
			counts[k] += float64(d.ok)
		}
	}
	return median(counts)
}
