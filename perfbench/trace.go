package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ftoa"
	"ftoa/internal/spatial"
	"ftoa/internal/wire"
)

// The traced mode. It reruns a workload's generated inputs in process,
// through the same public functions the server calls, with a span around
// every call into a layer, and measures each layer on its own on the
// same inputs. It is separate from the end-to-end runs: the untraced and
// traced passes of the same pipeline give the tracing overhead.

// Span names, in pipeline order. The pipeline is the server's wire batch
// handler (cmd/ftoa-serve/wire.go handleBatch): decode, dedup lookup,
// ring enqueue, wait for the drainers, dedup record, reply encode.
const (
	spBatch = iota
	spDecode
	spDedupLookup
	spEnqueue
	spWait
	spDedupRecord
	spEncode
	numSpans
)

var spanNames = [numSpans]string{
	spBatch:       "batch",
	spDecode:      "wire.decode",
	spDedupLookup: "wire.dedup_lookup",
	spEnqueue:     "shard.ring_enqueue",
	spWait:        "shard.ring_wait",
	spDedupRecord: "wire.dedup_record",
	spEncode:      "wire.reply_encode",
}

// span is one timed call. Spans of one batch share batch; parent is the
// index of the enclosing span, -1 for a batch's root.
type span struct {
	name       uint8
	parent     int32
	batch      int32
	start, end int64 // ns since the tracer's t0
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name uint8, parent, batch int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, batch: batch, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// selfTimes sums each span name's self time: its duration minus the
// part its children cover (children of one span never overlap here).
func (t *tracer) selfTimes() [numSpans]int64 {
	var self [numSpans]int64
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// traceInput is one workload's inputs as the traced mode replays them.
type traceInput struct {
	reqs  []wire.Request // in arrival order, At set
	batch int            // requests per pipeline batch, as the workload's client groups them
	// routerConfig is the workload's router (the server's, for
	// wire-saturate, with its default WAL sync policy); walDir "" means
	// no WAL.
	routerConfig func(walDir string) ftoa.ShardConfig
	buildGuide   func() (*ftoa.Guide, error)
}

// serverRouterConfig is ftoa-serve's router for the given flags: greedy,
// Strict, default velocity and bounds, halo in seconds.
func serverRouterConfig(halo float64) func(string) ftoa.ShardConfig {
	return func(walDir string) ftoa.ShardConfig {
		rc := ftoa.ShardConfig{
			Matcher: ftoa.MatcherConfig{
				Mode:     ftoa.Strict,
				Velocity: velocity,
				Bounds:   ftoa.NewRect(0, 0, areaSide, areaSide),
			},
			Cols:         4,
			Rows:         4,
			Halo:         ftoa.HaloForWindow(velocity, halo),
			NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
		}
		if walDir != "" {
			rc.WAL = &ftoa.WALOptions{Dir: walDir}
		}
		return rc
	}
}

// countsGuide builds a guide from the per-(slot, cell) counts of the
// requests themselves: 8x8 cells, 12 slots over their time span.
func countsGuide(reqs []wire.Request, bounds ftoa.Rect, v, workerWin, taskWin float64) func() (*ftoa.Guide, error) {
	return func() (*ftoa.Guide, error) {
		horizon := 0.0
		for i := range reqs {
			horizon = max(horizon, reqs[i].At)
		}
		horizon = math.Nextafter(horizon, math.Inf(1))
		grid := ftoa.NewGrid(bounds, 8, 8)
		slots := ftoa.NewSlotting(horizon, 12)
		wc := make([]int, slots.Count*grid.NumCells())
		tc := make([]int, len(wc))
		for i := range reqs {
			k := slots.SlotOf(reqs[i].At)*grid.NumCells() + grid.CellOf(ftoa.Pt(reqs[i].X, reqs[i].Y))
			if reqs[i].Kind == wire.ReqAddWorker {
				wc[k]++
			} else {
				tc[k]++
			}
		}
		return ftoa.BuildGuide(ftoa.GuideConfig{
			Grid:           grid,
			Slots:          slots,
			Velocity:       v,
			WorkerPatience: workerWin,
			TaskExpiry:     taskWin,
			RepSlack:       slots.Width() / 2,
		}, wc, tc)
	}
}

func traceWireSaturate(ctx context.Context, e *env) (*outcome, error) {
	// The server is loaded first. The admissions it acknowledged, with
	// the arrival times it stamped on them, are the traced inputs, so the
	// router in process sees the rate and the live population the server
	// saw.
	sr, err := shortWireRun(ctx, e)
	if err != nil {
		return nil, err
	}
	in := &traceInput{
		reqs:         sr.reqs,
		batch:        wireBatch,
		routerConfig: serverRouterConfig(5),
		buildGuide:   countsGuide(sr.reqs, ftoa.NewRect(0, 0, areaSide, areaSide), velocity, wirePatience, wireExpiry),
	}
	o, err := traceLayers(e, in)
	if err != nil {
		return nil, err
	}
	o.attempted += sr.attempted
	o.failed += sr.failed
	sr.st.layerValues(o.values)
	if sr.st.Wire.ProtocolErrors != 0 && o.checkErr == nil {
		o.checkErr = fmt.Errorf("check: server counted %d protocol errors", sr.st.Wire.ProtocolErrors)
	}
	return o, nil
}

func traceReplay(ctx context.Context, e *env) (*outcome, error) {
	cfg := replaySynthetic(e.seed)
	inst, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	g, err := replayGuide(cfg)
	if err != nil {
		return nil, err
	}
	events := inst.Events()
	reqs := make([]wire.Request, len(events))
	for i, ev := range events {
		if ev.Kind == ftoa.WorkerArrival {
			w := &inst.Workers[ev.Index]
			reqs[i] = wire.Request{Kind: wire.ReqAddWorker, X: w.Loc.X, Y: w.Loc.Y, At: w.Arrive, Window: w.Patience}
		} else {
			t := &inst.Tasks[ev.Index]
			reqs[i] = wire.Request{Kind: wire.ReqAddTask, X: t.Loc.X, Y: t.Loc.Y, At: t.Release, Window: t.Expiry}
		}
	}
	in := &traceInput{
		reqs:  reqs,
		batch: 1, // one producer, one call per arrival
		routerConfig: func(walDir string) ftoa.ShardConfig {
			return replayRouterConfig(cfg, inst, g, walDir, ftoa.WALSyncNone)
		},
		buildGuide: func() (*ftoa.Guide, error) { return replayGuide(cfg) },
	}
	o, err := traceLayers(e, in)
	if err != nil {
		return nil, err
	}
	// No server runs in this workload: its serve.* counters are zero.
	(&serveStats{}).layerValues(o.values)
	return o, ctx.Err()
}

// traceLayers runs the untraced and traced pipeline passes and the
// per-layer measurements on in.
func traceLayers(e *env, in *traceInput) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	v := o.values
	n := float64(len(in.reqs))
	frames, bytes, err := encodeFrames(in.reqs, in.batch)
	if err != nil {
		return nil, err
	}
	v["wire.bytes_per_req"] = float64(bytes) / n

	// Untraced, then traced, each on a fresh router.
	plain, err := runPipeline(in, frames, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, len(frames)*numSpans)}
	traced, err := runPipeline(in, frames, tr)
	if err != nil {
		return nil, err
	}
	o.attempted = int64(2 * len(in.reqs))
	o.failed = plain.failed + traced.failed
	if plain.ok != traced.ok {
		o.checkErr = fmt.Errorf("check: untraced pipeline admitted %d, traced %d", plain.ok, traced.ok)
	}
	self := tr.selfTimes()
	perReq := func(ns int64) float64 { return float64(ns) / n }
	v["wire.decode_ns_per_req"] = perReq(self[spDecode])
	v["wire.dedup_lookup_ns"] = perReq(self[spDedupLookup])
	v["wire.dedup_record_ns"] = perReq(self[spDedupRecord])
	v["wire.reply_encode_ns_per_req"] = perReq(self[spEncode])
	v["shard.ring_enqueue_ns"] = perReq(self[spEnqueue])
	v["shard.ring_wait_ns"] = perReq(self[spWait])
	v["shard.ring_busy"] = float64(plain.busy + traced.busy)
	v["trace.batch_self_ns_per_req"] = perReq(self[spBatch])
	v["trace.e2e_ns_per_req"] = perReq(int64(plain.elapsed))
	v["trace.traced_ns_per_req"] = perReq(int64(traced.elapsed))
	v["trace.overhead_pct"] = 100 * (float64(traced.elapsed) - float64(plain.elapsed)) / float64(plain.elapsed)
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline per request: untraced %.0f ns, traced %.0f ns; self time by span:", v["trace.e2e_ns_per_req"], v["trace.traced_ns_per_req"])
	for i, name := range spanNames {
		fmt.Fprintf(&b, " %s %.0f", name, perReq(self[i]))
	}
	logf("%s", b.String())

	if err := measureRouter(e, in, v); err != nil {
		return nil, err
	}
	if err := measureSessions(in, v); err != nil {
		return nil, err
	}
	return o, nil
}

// encodeFrames encodes reqs as wire batches of size batch, with the
// idempotency seqs one client would assign.
func encodeFrames(reqs []wire.Request, batch int) ([][]byte, int, error) {
	var frames [][]byte
	bytes := 0
	seq := uint64(0)
	for lo := 0; lo < len(reqs); lo += batch {
		b := append([]wire.Request(nil), reqs[lo:min(lo+batch, len(reqs))]...)
		for i := range b {
			seq++
			b[i].Seq = seq
		}
		f, err := wire.AppendBatch(nil, uint64(len(frames)+1), b)
		if err != nil {
			return nil, 0, err
		}
		frames = append(frames, f)
		bytes += len(f)
	}
	return frames, bytes, nil
}

type pipelineRun struct {
	elapsed      time.Duration
	ok           int
	busy, failed int64
}

// runPipeline feeds frames through the server's batch path on a fresh
// router and admitter built like the workload's: decode, dedup lookup,
// ring enqueue, wait, dedup record, reply encode — the calls and order of
// ftoa-serve's handleBatch, with a span around each step when tr is set.
// A BUSY refusal is retried after the drainers catch up, as a client
// would, and counted.
func runPipeline(in *traceInput, frames [][]byte, tr *tracer) (*pipelineRun, error) {
	r, err := ftoa.NewShardRouter(in.routerConfig(""))
	if err != nil {
		return nil, err
	}
	adm := ftoa.NewShardAdmitter(r, ftoa.ShardAdmitterConfig{})
	defer adm.Close()
	tab := wire.NewDedupTable(0, 0)
	const clientID = 1
	run := &pipelineRun{}
	var (
		scratch []wire.Request
		results []wire.Result
		admRes  []ftoa.ShardAdmitResult
		reply   []byte
	)
	t0 := time.Now()
	for b, p := range frames {
		root := tr.begin(spBatch, -1, int32(b))

		s := tr.begin(spDecode, root, int32(b))
		id, reqs, err := wire.DecodeBatch(p, scratch[:0])
		tr.end(s)
		if err != nil {
			return nil, err
		}
		scratch = reqs
		results = append(results[:0], make([]wire.Result, len(reqs))...)
		admRes = append(admRes[:0], make([]ftoa.ShardAdmitResult, len(reqs))...)

		s = tr.begin(spDedupLookup, root, int32(b))
		win, err := tab.Acquire(clientID)
		if err != nil {
			return nil, err
		}
		win.Lock()
		fresh := 0
		for i := range reqs {
			if _, st := win.Lookup(reqs[i].Seq); st == wire.DedupNew {
				fresh++
			}
		}
		tr.end(s)
		if fresh != len(reqs) {
			win.Unlock()
			return nil, fmt.Errorf("dedup window classified %d of %d fresh seqs as not new", len(reqs)-fresh, len(reqs))
		}

		var wg sync.WaitGroup
		s = tr.begin(spEnqueue, root, int32(b))
		for i := range reqs {
			rq := &reqs[i]
			for !enqueue(adm, rq, &admRes[i], &wg) {
				run.busy++
				wg.Wait() // let the drainers catch up, then retry
			}
		}
		tr.end(s)

		s = tr.begin(spWait, root, int32(b))
		wg.Wait()
		tr.end(s)

		s = tr.begin(spDedupRecord, root, int32(b))
		for i := range reqs {
			res := &results[i]
			res.Kind = reqs[i].Kind
			if err := admRes[i].Err; err != nil {
				res.Status, res.Msg = wire.StatusErr, err.Error()
				run.failed++
			} else {
				res.Status = wire.StatusOK
				res.Shard, res.Local = uint32(admRes[i].H.Shard), uint32(admRes[i].H.Local)
				res.Epoch, res.Time = admRes[i].Epoch, admRes[i].Admitted
				run.ok++
			}
			win.Record(reqs[i].Seq, *res)
		}
		tr.end(s)
		win.Unlock()

		s = tr.begin(spEncode, root, int32(b))
		reply = wire.AppendBatchReply(reply[:0], id, results)
		tr.end(s)

		tr.end(root)
	}
	run.elapsed = time.Since(t0)
	return run, nil
}

func enqueue(adm *ftoa.ShardAdmitter, rq *wire.Request, res *ftoa.ShardAdmitResult, wg *sync.WaitGroup) bool {
	if rq.Kind == wire.ReqAddWorker {
		return adm.AddWorker(ftoa.Worker{Loc: ftoa.Pt(rq.X, rq.Y), Arrive: rq.At, Patience: rq.Window}, res, wg)
	}
	return adm.AddTask(ftoa.Task{Loc: ftoa.Pt(rq.X, rq.Y), Release: rq.At, Expiry: rq.Window}, res, wg)
}

// admitDirect admits one request through the router's direct call.
func admitDirect(r *ftoa.ShardRouter, rq *wire.Request) error {
	var err error
	if rq.Kind == wire.ReqAddWorker {
		_, _, err = r.AddWorker(ftoa.Worker{Loc: ftoa.Pt(rq.X, rq.Y), Arrive: rq.At, Patience: rq.Window})
	} else {
		_, _, err = r.AddTask(ftoa.Task{Loc: ftoa.Pt(rq.X, rq.Y), Release: rq.At, Expiry: rq.Window})
	}
	return err
}

// admitSubscribed admits reqs through r's direct calls with a live
// subscriber from cursor 0, drained every 128 admissions. It returns the
// time spent in the admission calls and in Next, and the events Next
// delivered.
func admitSubscribed(r *ftoa.ShardRouter, reqs []wire.Request) (admit, next time.Duration, events int, err error) {
	sub := r.Subscribe(0)
	defer sub.Close()
	var evs []ftoa.ShardEvent
	for lo := 0; lo < len(reqs); lo += 128 {
		t := time.Now()
		for i := lo; i < min(lo+128, len(reqs)); i++ {
			if err := admitDirect(r, &reqs[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		admit += time.Since(t)
		t = time.Now()
		for {
			evs, _, err = sub.Next(1024, evs[:0])
			if err != nil {
				return 0, 0, 0, err
			}
			if len(evs) == 0 {
				break
			}
			events += len(evs)
		}
		next += time.Since(t)
	}
	return admit, next, events, nil
}

// measureRouter times the router's direct admission calls with a live
// subscriber, then pages the merged stream, then repeats the subscribed
// admissions on a WAL-backed router and recovers it. The WAL is the only
// difference between the two admission passes.
func measureRouter(e *env, in *traceInput, v map[string]float64) error {
	n := float64(len(in.reqs))
	r, err := ftoa.NewShardRouter(in.routerConfig(""))
	if err != nil {
		return err
	}
	admitNs, nextNs, subEvents, err := admitSubscribed(r, in.reqs)
	if err != nil {
		return err
	}
	v["shard.admit_ns"] = float64(admitNs) / n
	v["shard.sub_next_ns_per_event"] = float64(nextNs) / float64(max(1, subEvents))
	v["shard.sub_fallbacks"] = float64(r.BroadcastStats().Fallbacks)
	var owned, ghosts, hot, claims int
	for _, st := range r.StatsAll(nil) {
		own := st.Workers + st.Tasks - st.GhostWorkers - st.GhostTasks
		owned += own
		hot = max(hot, own)
		ghosts += st.GhostWorkers + st.GhostTasks
		claims += st.ClaimsLost
	}
	v["shard.hot_shard_share"] = 100 * float64(hot) / float64(max(1, owned))
	v["shard.ghosts_per_admission"] = float64(ghosts) / float64(max(1, owned))
	v["shard.claims_lost"] = float64(claims)

	t := time.Now()
	paged := 0
	var evs []ftoa.ShardEvent
	for since := uint64(0); since < r.Cursor(); {
		var next uint64
		evs, next, err = r.EventsLimit(since, 1024, evs[:0])
		if err != nil {
			return err
		}
		paged += len(evs)
		since = next
	}
	v["shard.events_page_ns_per_event"] = float64(time.Since(t)) / float64(max(1, paged))

	walRoot, err := os.MkdirTemp(e.tmp, "trace-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)
	walDir := filepath.Join(walRoot, "wal")
	rc := in.routerConfig(walDir)
	wr, err := ftoa.NewShardRouter(rc)
	if err != nil {
		return err
	}
	walAdmit, _, _, err := admitSubscribed(wr, in.reqs)
	if err != nil {
		return err
	}
	if err := wr.WALClose(); err != nil {
		return err
	}
	v["wal.append_ns_per_admission"] = (float64(walAdmit) - float64(admitNs)) / n
	size, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	v["wal.bytes_per_admission"] = float64(size) / n
	t = time.Now()
	rec, info, err := ftoa.RecoverShardRouter(rc)
	if err != nil {
		return err
	}
	v["wal.recover_ns_per_event"] = float64(time.Since(t)) / float64(max(1, info.Events))
	return rec.WALClose()
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// measureSessions times one unsharded session per algorithm (greedy and
// POLAR-OP with a guide built from the workload's counts), the
// allocations per POLAR-OP admission, and nearest-neighbour queries of
// the spatial index over the workload's own locations.
func measureSessions(in *traceInput, v map[string]float64) error {
	n := float64(len(in.reqs))
	t := time.Now()
	g, err := in.buildGuide()
	if err != nil {
		return err
	}
	v["guide.build_s"] = time.Since(t).Seconds()

	horizon := 0.0
	for i := range in.reqs {
		horizon = max(horizon, in.reqs[i].At)
	}
	mc := in.routerConfig("").Matcher
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode:     ftoa.Strict,
		Velocity: mc.Velocity,
		Bounds:   mc.Bounds,
		Hints:    ftoa.Hints{ExpectedWorkers: len(in.reqs) / 2, ExpectedTasks: len(in.reqs) / 2, Horizon: horizon},
	})
	if err != nil {
		return err
	}
	admit := func(s *ftoa.Session) (time.Duration, error) {
		t := time.Now()
		for i := range in.reqs {
			rq := &in.reqs[i]
			var err error
			if rq.Kind == wire.ReqAddWorker {
				_, err = s.AddWorker(ftoa.Worker{Loc: ftoa.Pt(rq.X, rq.Y), Arrive: rq.At, Patience: rq.Window})
			} else {
				_, err = s.AddTask(ftoa.Task{Loc: ftoa.Pt(rq.X, rq.Y), Release: rq.At, Expiry: rq.Window})
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	d, err := admit(m.NewSession(ftoa.NewSimpleGreedy()))
	if err != nil {
		return err
	}
	v["sim.greedy_admit_ns"] = float64(d) / n
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err = admit(m.NewSession(ftoa.NewPOLAROP(g)))
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	v["sim.polarop_admit_ns"] = float64(d) / n
	v["sim.allocs_per_admission"] = float64(m1.Mallocs-m0.Mallocs) / n

	v["spatial.nearest_ns"] = nearestNs(in)
	return nil
}

// nearestNs builds a spatial index over the workload's worker locations
// and returns the mean time of a nearest-worker query from each task
// location.
func nearestNs(in *traceInput) float64 {
	var workers, tasks []ftoa.Point
	for i := range in.reqs {
		p := ftoa.Pt(in.reqs[i].X, in.reqs[i].Y)
		if in.reqs[i].Kind == wire.ReqAddWorker {
			workers = append(workers, p)
		} else {
			tasks = append(tasks, p)
		}
	}
	ix := spatial.NewIndex(in.routerConfig("").Matcher.Bounds, len(workers))
	for i, p := range workers {
		ix.Insert(i, p)
	}
	t := time.Now()
	for _, p := range tasks {
		ix.Nearest(p, math.Inf(1), nil)
	}
	return float64(time.Since(t)) / float64(max(1, len(tasks)))
}

// traceServerRun is how long the traced mode loads a server: the
// end-to-end run's warm-up and two measured seconds.
const traceServerRun = warmup + 2*time.Second

// shortRun is what a brief server run of the workload gives the traced
// mode.
type shortRun struct {
	st                *serveStats
	reqs              []wire.Request // acknowledged admissions by server-stamped time
	attempted, failed int64
}

// shortWireRun loads a wire-saturate server briefly, its first
// connection subscribed as in the end-to-end run, and returns its /stats
// and the admissions it acknowledged, each with its server-stamped time.
func shortWireRun(ctx context.Context, e *env) (*shortRun, error) {
	s, _, err := e.procs.start(ctx, e.serverBin, wireServerArgs)
	if err != nil {
		return nil, err
	}
	defer e.procs.stop(s)
	t0 := time.Now()
	col := &collector{t0: t0}
	var wg sync.WaitGroup
	logs := make([]connLog, wireConns)
	for i := range logs {
		cl, err := wire.Dial(s.Wire)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if i == 0 {
			if err := cl.Subscribe(0, col.onEvents, col.onGone); err != nil {
				return nil, err
			}
		}
		pool := genArrivals(newRNG(e.seed, streamWireConn0+uint64(i)), wirePool, "hotspot", wirePatience, wireExpiry)
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = closedLoop(ctx, cl, pool, t0, traceServerRun, nil)
		}()
	}
	wg.Wait()
	sr := &shortRun{}
	for i := range logs {
		lg := &logs[i]
		if lg.err != nil {
			return nil, lg.err
		}
		sr.attempted += lg.attempted
		sr.failed += lg.failed
		for _, sa := range lg.acks {
			kind := wire.ReqAddWorker
			if sa.side == sideTask {
				kind = wire.ReqAddTask
			}
			sr.reqs = append(sr.reqs, wire.Request{Kind: kind, X: sa.a.x, Y: sa.a.y, At: sa.a.at, Window: sa.a.window})
		}
	}
	sort.SliceStable(sr.reqs, func(i, j int) bool { return sr.reqs[i].At < sr.reqs[j].At })
	if sr.st, err = scrapeStats(s.HTTP); err != nil {
		return nil, err
	}
	return sr, nil
}
