package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	"ftoa"
)

// replay-polarop: the paper's pipeline in process. A seeded synthetic
// instance twice the paper's default size, a guide from the generator's
// expected counts, POLAR-OP in Strict mode through a 4x4 ShardRouter with
// a quarter-window halo and a buffered WAL, one producer; then
// RecoverShardRouter on that WAL.
const (
	replayWorkers   = 40000
	replayTasks     = 40000
	replayMinRounds = 3 // timed rounds, however short -seconds is
)

func replaySynthetic(seed uint64) ftoa.Synthetic {
	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = replayWorkers, replayTasks
	cfg.Seed = seed
	return cfg
}

// replayGuide builds POLAR-OP's offline guide from the generator's
// expected per-cell counts (8x8 grid, 12 slots).
func replayGuide(cfg ftoa.Synthetic) (*ftoa.Guide, error) {
	grid := ftoa.NewGrid(cfg.Bounds(), 8, 8)
	slots := ftoa.NewSlotting(cfg.Horizon, 12)
	wc, tc := cfg.ExpectedCounts(grid, slots)
	return ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:           grid,
		Slots:          slots,
		Velocity:       cfg.Velocity,
		WorkerPatience: cfg.WorkerPatience,
		TaskExpiry:     cfg.TaskExpiry,
		RepSlack:       slots.Width() / 2,
	}, wc, tc)
}

func replayRouterConfig(cfg ftoa.Synthetic, in *ftoa.Instance, g *ftoa.Guide, walDir string, policy ftoa.WALSyncPolicy) ftoa.ShardConfig {
	rc := ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{
			Mode:     ftoa.Strict,
			Velocity: in.Velocity,
			Bounds:   in.Bounds,
			Hints: ftoa.Hints{
				ExpectedWorkers: len(in.Workers),
				ExpectedTasks:   len(in.Tasks),
				Horizon:         in.Horizon,
			},
		},
		Cols:         4,
		Rows:         4,
		Halo:         ftoa.HaloForWindow(cfg.Velocity, cfg.TaskExpiry) / 4,
		NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewPOLAROP(g) },
	}
	if walDir != "" {
		rc.WAL = &ftoa.WALOptions{Dir: walDir, Policy: policy}
	}
	return rc
}

// replayRound is one full round: set-up, timed replay, recovery.
type replayRound struct {
	setup             float64 // s, median of the round's set-ups
	replay, recover   time.Duration
	callMs, assignMs  []float64
	heap              float64 // bytes
	matched, arrivals int
	failed            int64
	checkErr          error
}

func runReplay(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	var rounds []*replayRound
	start := time.Now()
	matched := -1
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Round 0 warms caches and is checked but not timed.
		if i > 0 && len(rounds) >= replayMinRounds && time.Since(start) >= e.seconds {
			break
		}
		rr, err := replayOnce(e)
		if err != nil {
			return nil, err
		}
		o.attempted += int64(rr.arrivals)
		o.failed += rr.failed
		if rr.checkErr != nil && o.checkErr == nil {
			o.checkErr = rr.checkErr
		}
		if matched >= 0 && rr.matched != matched && o.checkErr == nil {
			o.checkErr = fmt.Errorf("check: replay of one instance matched %d pairs, an earlier round %d", rr.matched, matched)
		}
		matched = rr.matched
		if i == 0 {
			start = time.Now()
			continue
		}
		rounds = append(rounds, rr)
	}

	// The offline optimum of the same instance bounds the online matching.
	cfg := replaySynthetic(e.seed)
	in, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	if err := checkAtMostOPT(matched, ftoa.OPT(in, ftoa.OPTOptions{}).Size()); err != nil && o.checkErr == nil {
		o.checkErr = err
	}

	// Every figure is the median over the timed rounds.
	var setups, rates, heaps, recovers, c50, c99, a50, a99 []float64
	for _, rr := range rounds {
		setups = append(setups, rr.setup)
		rates = append(rates, float64(rr.arrivals)/rr.replay.Seconds())
		heaps = append(heaps, rr.heap/float64(rr.arrivals))
		recovers = append(recovers, rr.recover.Seconds())
		p50, p99 := percentiles(rr.callMs)
		c50, c99 = append(c50, p50), append(c99, p99)
		p50, p99 = percentiles(rr.assignMs)
		a50, a99 = append(a50, p50), append(a99, p99)
	}
	v := o.values
	v["setup_s"] = median(setups)
	v["admit_per_s"] = median(rates)
	v["admit_p50_ms"], v["admit_p99_ms"] = median(c50), median(c99)
	v["assign_p50_ms"], v["assign_p99_ms"] = median(a50), median(a99)
	v["mem_b_per_admit"] = median(heaps)
	v["matched_pct"] = 100 * float64(2*matched) / float64(replayWorkers+replayTasks)
	v["recover_s"] = median(recovers)
	logf("replay-polarop: %d timed rounds of %d arrivals, %d matched", len(rounds), replayWorkers+replayTasks, matched)
	return o, nil
}

// replaySetupRounds is how many set-ups a round times.
const replaySetupRounds = 5

// throwawaySetup times one complete set-up — instance, guide, router
// with its WAL — and closes the router unused.
func throwawaySetup(seed uint64, walDir string) (time.Duration, error) {
	t0 := time.Now()
	cfg := replaySynthetic(seed)
	in, err := cfg.Generate()
	if err != nil {
		return 0, err
	}
	g, err := replayGuide(cfg)
	if err != nil {
		return 0, err
	}
	r, err := ftoa.NewShardRouter(replayRouterConfig(cfg, in, g, walDir, ftoa.WALSyncNone))
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, r.WALClose()
}

// ledgerBytes is the heap the ledger's backing arrays hold.
func ledgerBytes(l *ledger) int64 {
	var n int64
	for side := range l.acks {
		n += int64(cap(l.acks[side])) * int64(unsafe.Sizeof([]ack(nil)))
		for _, s := range l.acks[side] {
			n += int64(cap(s)) * int64(unsafe.Sizeof(ack{}))
		}
	}
	return n
}

// replayOnce runs one round: builds the instance, guide and router
// (set-up), replays every arrival with Finish (timed per call), then
// closes the WAL and recovers a router from it (timed), and checks the
// outputs.
func replayOnce(e *env) (*replayRound, error) {
	// The signal path removes the dir too, should a round outlive the
	// grace the benchmark gives it.
	walRoot, err := e.procs.tempDir(e.tmp, "replay-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)
	walDir := filepath.Join(walRoot, "wal")
	rr := &replayRound{}

	// Set-up is timed replaySetupRounds times; the last set-up is the one
	// the round replays through.
	var setups []float64
	for k := 1; k < replaySetupRounds; k++ {
		d, err := throwawaySetup(e.seed, filepath.Join(walRoot, fmt.Sprintf("setup-%d", k)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	t0 := time.Now()
	cfg := replaySynthetic(e.seed)
	in, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	g, err := replayGuide(cfg)
	if err != nil {
		return nil, err
	}
	part1 := time.Since(t0)

	events := in.Events()
	rr.arrivals = len(events)
	starts := make([]int64, len(events)+1)
	ends := make([]int64, len(events)+1)
	stream := make([]ftoa.ShardEvent, 0, len(events))
	call := 0
	commitCall := make([]int32, 0, len(events))
	rc := replayRouterConfig(cfg, in, g, walDir, ftoa.WALSyncNone)
	rc.OnEvent = func(ev ftoa.ShardEvent) {
		stream = append(stream, ev)
		commitCall = append(commitCall, int32(call))
	}
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t1 := time.Now()
	r, err := ftoa.NewShardRouter(rc)
	if err != nil {
		return nil, err
	}
	rr.setup = median(append(setups, (part1 + time.Since(t1)).Seconds()))

	l := &ledger{}
	lastAt := 0.0
	rt0 := time.Now()
	for i, ev := range events {
		call = i
		s := time.Since(rt0)
		var h ftoa.ShardHandle
		var at float64
		side := sideWorker
		if ev.Kind == ftoa.WorkerArrival {
			h, at, err = r.AddWorker(in.Workers[ev.Index])
		} else {
			side = sideTask
			h, at, err = r.AddTask(in.Tasks[ev.Index])
		}
		ends[i] = int64(time.Since(rt0))
		starts[i] = int64(s)
		if err != nil {
			rr.failed++
			continue
		}
		rcpt := receipt{int32(h.Shard), int32(h.Local)}
		var a ack
		if side == sideWorker {
			w := &in.Workers[ev.Index]
			a = ack{x: w.Loc.X, y: w.Loc.Y, at: at, window: w.Patience, due: int64(i)}
		} else {
			t := &in.Tasks[ev.Index]
			a = ack{x: t.Loc.X, y: t.Loc.Y, at: at, window: t.Expiry, due: int64(i)}
		}
		lastAt = max(lastAt, at)
		if err := l.add(side, rcpt, a); err != nil && rr.checkErr == nil {
			rr.checkErr = err
		}
	}
	call = len(events)
	starts[call] = int64(time.Since(rt0))
	r.Finish()
	ends[call] = int64(time.Since(rt0))
	rr.replay = time.Since(rt0)

	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	// The benchmark's own ledger grew beside the router; only the
	// router's growth counts.
	rr.heap = float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc) - float64(ledgerBytes(l))

	rr.callMs = make([]float64, len(events))
	for i := range events {
		rr.callMs[i] = ms(ends[i] - starts[i])
	}
	// A match's later endpoint is the one admitted by the later call (the
	// ledger's due field holds the call index); its assignment latency
	// runs from that call's start to the end of the call that committed
	// the match.
	evs := make([]termEvent, len(stream))
	for i, ev := range stream {
		evs[i] = termEvent{kind: ev.Kind, w: receipt{int32(ev.WorkerShard), int32(ev.Worker)}, t: receipt{int32(ev.TaskShard), int32(ev.Task)}, time: ev.Time}
		if ev.Kind != ftoa.EventMatch {
			continue
		}
		w, t := l.get(sideWorker, evs[i].w), l.get(sideTask, evs[i].t)
		if w == nil || t == nil {
			continue // reported by the conservation check
		}
		later := max(w.due, t.due)
		rr.assignMs = append(rr.assignMs, ms(ends[commitCall[i]]-starts[later]))
	}

	live, _, err := r.Events(0, nil)
	if err != nil {
		return nil, err
	}
	stats := r.StatsAll(nil)
	if err := r.WALClose(); err != nil {
		return nil, fmt.Errorf("WAL close: %w", err)
	}
	rc.OnEvent = nil
	// Recovery allocates the whole router again; start it on a collected
	// heap so the collector's pacing left over from the replay does not
	// land in its time.
	runtime.GC()
	t2 := time.Now()
	rec, _, err := ftoa.RecoverShardRouter(rc)
	if err != nil {
		return nil, err
	}
	rr.recover = time.Since(t2)
	recovered, _, err := rec.Events(0, nil)
	if err != nil {
		return nil, err
	}
	if err := rec.WALClose(); err != nil {
		return nil, fmt.Errorf("recovered WAL close: %w", err)
	}

	for _, st := range stats {
		rr.matched += st.Matches
	}
	tl, err := checkConservation(l, evs, max(in.Horizon, lastAt))
	if err == nil {
		err = checkFeasible(l, evs, in.Velocity, false)
	}
	if err == nil && tl.matches != rr.matched {
		err = fmt.Errorf("check: router counted %d matches, the merged stream carries %d", rr.matched, tl.matches)
	}
	if err == nil {
		err = checkSameStream(stream, live)
	}
	if err == nil {
		err = checkSameStream(live, recovered)
	}
	if rr.checkErr == nil {
		rr.checkErr = err
	}
	return rr, nil
}
