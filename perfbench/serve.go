package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"ftoa/internal/sim"
	"ftoa/internal/wire"
)

// Pieces of the server workload: the /stats scrape, the event
// subscriber, draining the server after the load, and set-up timing.

// serveStats is the part of GET /stats the benchmark reads.
type serveStats struct {
	Workers      int `json:"workers"`
	Tasks        int `json:"tasks"`
	Matches      int `json:"matches"`
	GhostWorkers int `json:"ghost_workers"`
	GhostTasks   int `json:"ghost_tasks"`
	Wire         struct {
		Batches        uint64 `json:"batches"`
		Deduped        uint64 `json:"deduped"`
		RingRefusals   uint64 `json:"ring_refusals"`
		ProtocolErrors uint64 `json:"protocol_errors"`
	} `json:"wire"`
	Events struct {
		Published uint64 `json:"published"`
		Fallbacks uint64 `json:"fallbacks"`
		Wakeups   uint64 `json:"wakeups"`
	} `json:"events"`
	Shards []struct {
		Now float64 `json:"now"`
	} `json:"shards"`
}

func scrapeStats(addr string) (*serveStats, error) {
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: %s", resp.Status)
	}
	var st serveStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// minShardNow is the slowest shard clock.
func (st *serveStats) minShardNow() float64 {
	m := math.Inf(1)
	for _, s := range st.Shards {
		m = min(m, s.Now)
	}
	return m
}

// layerValues sets the per-layer serve.* counters of one run.
func (st *serveStats) layerValues(v map[string]float64) {
	v["serve.wire_batches"] = float64(st.Wire.Batches)
	v["serve.deduped"] = float64(st.Wire.Deduped)
	v["serve.ring_refusals"] = float64(st.Wire.RingRefusals)
	v["serve.protocol_errors"] = float64(st.Wire.ProtocolErrors)
	v["serve.events_published"] = float64(st.Events.Published)
	v["serve.events_fallbacks"] = float64(st.Events.Fallbacks)
	v["serve.events_wakeups"] = float64(st.Events.Wakeups)
}

// collector receives the pushed event stream of one wire subscription.
type collector struct {
	t0 time.Time

	mu   sync.Mutex
	evs  []termEvent
	next uint64
	gone bool
}

func (c *collector) onEvents(next uint64, evs []wire.Event) {
	recv := int64(time.Since(c.t0))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		c.evs = append(c.evs, termEvent{
			kind: sim.SessionEventKind(ev.Kind),
			w:    receipt{ev.WorkerShard, ev.Worker},
			t:    receipt{ev.TaskShard, ev.Task},
			time: ev.Time,
			recv: recv,
		})
	}
	c.next = next
}

func (c *collector) onGone(uint64) {
	c.mu.Lock()
	c.gone = true
	c.mu.Unlock()
}

func (c *collector) cursor() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next, c.gone
}

// drain drives the server clock past the last deadline the benchmark
// handed out, so every admission has reached a terminal outcome, then
// waits until the subscriber has received every published event. It
// returns the final /stats.
func drain(ctx context.Context, s *server, cl *wire.Client, col *collector, lastDeadline float64) (*serveStats, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		// An Advance moves every shard to the server's own clock.
		if _, err := cl.Do([]wire.Request{{Kind: wire.ReqAdvance}}); err != nil {
			return nil, fmt.Errorf("advance: %w", err)
		}
		st, err := scrapeStats(s.HTTP)
		if err != nil {
			return nil, err
		}
		next, gone := col.cursor()
		if gone {
			return nil, fmt.Errorf("subscriber fell behind retention (EventsGone)")
		}
		if st.minShardNow() > lastDeadline && next >= st.Events.Published {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server did not drain: slowest shard clock %.3f, last deadline %.3f, subscriber at %d of %d events",
				st.minShardNow(), lastDeadline, next, st.Events.Published)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Set-up time is the median of bootRounds boots: bootsBefore before the
// load and the rest after it, so a burst of the host's own load that
// lasts a few boots moves fewer than half of them.
const (
	bootRounds  = 25
	bootsBefore = 13
)

// bootTimes boots and stops a server with args n times and returns each
// exec → ready time in seconds.
func bootTimes(ctx context.Context, e *env, args []string, n int) ([]float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		s, d, err := e.procs.start(ctx, e.serverBin, args)
		if err != nil {
			return nil, err
		}
		e.procs.stop(s)
		ts = append(ts, d.Seconds())
	}
	return ts, nil
}
