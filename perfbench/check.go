package main

import (
	"errors"
	"fmt"
	"math"

	"ftoa/internal/sim"
)

// The output checks. Each is a plain function over data the benchmark
// collected itself — its own inputs, the receipts the program
// acknowledged, and the event stream it published — so each can be fed
// a hand-built violating input in check_test.go.

// receipt names one admission as the program acknowledged it: the owner
// shard and the shard-local handle.
type receipt struct{ shard, local int32 }

// Sides of the ledger.
const (
	sideWorker = 0
	sideTask   = 1
)

// ack is one acknowledged admission: what the benchmark sent (location
// and window), the time the program stamped on it, and when the
// benchmark made it due (ns since the run's start).
type ack struct {
	x, y, at, window float64
	due              int64
	present          bool
	terminal         uint8 // terminal outcomes seen in the stream
}

// ledger holds every acknowledged admission, indexed by side, shard
// and local handle (handles are dense per shard arena, so slices beat a
// map at a million entries).
type ledger struct {
	acks [2][][]ack
	n    int
}

// add records an acknowledgment; a receipt acknowledged twice is a
// duplicated endpoint.
func (l *ledger) add(side int, r receipt, a ack) error {
	if r.shard < 0 || r.local < 0 || r.shard > 1<<16 {
		return fmt.Errorf("check: receipt %v out of range", r)
	}
	for int(r.shard) >= len(l.acks[side]) {
		l.acks[side] = append(l.acks[side], nil)
	}
	s := l.acks[side][r.shard]
	for int(r.local) >= len(s) {
		s = append(s, ack{})
	}
	l.acks[side][r.shard] = s
	if s[r.local].present {
		return fmt.Errorf("check: duplicated endpoint: %s receipt %d/%d acknowledged twice", sideName(side), r.shard, r.local)
	}
	a.present = true
	s[r.local] = a
	l.n++
	return nil
}

func (l *ledger) get(side int, r receipt) *ack {
	if r.shard < 0 || int(r.shard) >= len(l.acks[side]) {
		return nil
	}
	s := l.acks[side][r.shard]
	if r.local < 0 || int(r.local) >= len(s) || !s[r.local].present {
		return nil
	}
	return &s[r.local]
}

func sideName(side int) string {
	if side == sideTask {
		return "task"
	}
	return "worker"
}

// termEvent is one terminal outcome from the published stream: a match
// (both receipts) or an expiry (one receipt, the other side's local -1).
type termEvent struct {
	kind sim.SessionEventKind
	w, t receipt
	time float64
	recv int64 // when the benchmark received it, ns since the run's start
}

// tally counts a stream's terminal outcomes.
type tally struct{ matches, expiries int }

// checkConservation checks that every acknowledged admission reaches
// exactly one terminal outcome in the stream and that nothing the
// program did not acknowledge appears there. A match that names the same
// endpoint as an earlier outcome is a duplicated endpoint, which also
// makes this the disjointness check of a matching. An admission whose
// deadline lies beyond end may have no outcome: a finished session
// leaves such objects unserved but alive.
func checkConservation(l *ledger, evs []termEvent, end float64) (tally, error) {
	var tl tally
	mark := func(side int, r receipt, ev *termEvent) error {
		a := l.get(side, r)
		if a == nil {
			return fmt.Errorf("check: unacknowledged endpoint: %s %d/%d appears in event %+v", sideName(side), r.shard, r.local, *ev)
		}
		a.terminal++
		if a.terminal > 1 {
			return fmt.Errorf("check: duplicated endpoint: %s %d/%d reaches a second terminal outcome in event %+v", sideName(side), r.shard, r.local, *ev)
		}
		return nil
	}
	for i := range evs {
		ev := &evs[i]
		switch ev.kind {
		case sim.EventMatch:
			if err := mark(sideWorker, ev.w, ev); err != nil {
				return tl, err
			}
			if err := mark(sideTask, ev.t, ev); err != nil {
				return tl, err
			}
			tl.matches++
		case sim.EventWorkerExpired:
			if err := mark(sideWorker, ev.w, ev); err != nil {
				return tl, err
			}
			tl.expiries++
		case sim.EventTaskExpired:
			if err := mark(sideTask, ev.t, ev); err != nil {
				return tl, err
			}
			tl.expiries++
		default:
			return tl, fmt.Errorf("check: unknown event kind %d", ev.kind)
		}
	}
	open := 0
	for side := range l.acks {
		for sh, s := range l.acks[side] {
			for loc := range s {
				a := &s[loc]
				if !a.present || a.terminal == 1 {
					continue
				}
				if a.at+a.window <= end {
					return tl, fmt.Errorf("check: acknowledged %s %d/%d never reached a terminal outcome", sideName(side), sh, loc)
				}
				open++
			}
		}
	}
	if 2*tl.matches+tl.expiries+open != l.n {
		return tl, fmt.Errorf("check: %d acknowledged endpoints but %d matched, %d expired and %d open", l.n, 2*tl.matches, tl.expiries, open)
	}
	return tl, nil
}

// feasEps absorbs float rounding in the feasibility arithmetic.
const feasEps = 1e-9

// checkFeasible recomputes Strict feasibility of every match from the
// benchmark's own locations and windows, the times the program stamped
// on the admissions, the commit time and the velocity: both endpoints
// present at the commit, the task released while the worker was on the
// platform, and the worker able to reach the task by the task's
// deadline. A stationary worker departs its own location at the commit;
// a worker the algorithm may have moved (POLAR-OP dispatches idle
// workers toward guide cells) is only known to be within velocity ×
// elapsed of it, so the reach test falls back to the paper's
// definition: departing at arrival.
func checkFeasible(l *ledger, evs []termEvent, v float64, stationary bool) error {
	for i := range evs {
		ev := &evs[i]
		if ev.kind != sim.EventMatch {
			continue
		}
		w, t := l.get(sideWorker, ev.w), l.get(sideTask, ev.t)
		if w == nil || t == nil {
			return fmt.Errorf("check: match %+v names an unacknowledged endpoint", *ev)
		}
		if err := feasible(w, t, ev.time, v, stationary); err != nil {
			return fmt.Errorf("check: infeasible pair: worker %d/%d, task %d/%d at t=%g: %w",
				ev.w.shard, ev.w.local, ev.t.shard, ev.t.local, ev.time, err)
		}
	}
	return nil
}

func feasible(w, t *ack, at, v float64, stationary bool) error {
	wDeadline := w.at + w.window
	tDeadline := t.at + t.window
	switch {
	case at+feasEps < w.at || at+feasEps < t.at:
		return errors.New("committed before an endpoint arrived")
	case t.at >= wDeadline:
		return errors.New("task released after the worker left")
	case at > wDeadline+feasEps:
		return errors.New("committed after the worker's deadline")
	}
	depart := w.at
	if stationary {
		depart = at
	}
	travel := math.Hypot(w.x-t.x, w.y-t.y) / v
	if depart+travel > tDeadline+feasEps*(1+tDeadline) {
		return fmt.Errorf("worker departing at %g needs %g to arrive but the task expires at %g", depart, travel, tDeadline)
	}
	return nil
}

// checkAtMostOPT checks the online matching against the offline optimum
// of the same instance.
func checkAtMostOPT(matched, opt int) error {
	if matched > opt {
		return fmt.Errorf("check: matching of %d pairs is larger than OPT = %d", matched, opt)
	}
	return nil
}

// checkSameStream checks that a recovered stream equals the live one
// event for event.
func checkSameStream[E comparable](live, recovered []E) error {
	n := min(len(live), len(recovered))
	for i := 0; i < n; i++ {
		if live[i] != recovered[i] {
			return fmt.Errorf("check: recovered stream differs at event %d: live %+v, recovered %+v", i, live[i], recovered[i])
		}
	}
	if len(live) != len(recovered) {
		return fmt.Errorf("check: recovered stream has %d events, live %d", len(recovered), len(live))
	}
	return nil
}
