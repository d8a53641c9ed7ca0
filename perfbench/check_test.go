package main

import (
	"strings"
	"testing"

	"ftoa/internal/sim"
)

// Each output check must pass on a consistent input and fail on a
// hand-built violating one.

func twoPairLedger(t *testing.T) *ledger {
	t.Helper()
	l := &ledger{}
	for _, a := range []struct {
		side int
		r    receipt
		a    ack
	}{
		{sideWorker, receipt{0, 0}, ack{x: 0, y: 0, at: 0, window: 10}},
		{sideTask, receipt{0, 0}, ack{x: 1, y: 0, at: 1, window: 2}},
		{sideWorker, receipt{1, 0}, ack{x: 50, y: 50, at: 2, window: 1}},
		{sideTask, receipt{1, 0}, ack{x: 90, y: 90, at: 2, window: 1}},
	} {
		if err := l.add(a.side, a.r, a.a); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func validStream() []termEvent {
	return []termEvent{
		{kind: sim.EventMatch, w: receipt{0, 0}, t: receipt{0, 0}, time: 1},
		{kind: sim.EventWorkerExpired, w: receipt{1, 0}, t: receipt{-1, -1}, time: 3},
		{kind: sim.EventTaskExpired, w: receipt{-1, -1}, t: receipt{1, 0}, time: 3},
	}
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("got %v, want an error containing %q", err, substr)
	}
}

func TestConservationHolds(t *testing.T) {
	l := twoPairLedger(t)
	tl, err := checkConservation(l, validStream(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if tl.matches != 1 || tl.expiries != 2 {
		t.Fatalf("tally %+v", tl)
	}
	if err := checkFeasible(l, validStream(), 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerRejectsDuplicatedReceipt(t *testing.T) {
	l := twoPairLedger(t)
	wantErr(t, l.add(sideTask, receipt{1, 0}, ack{}), "duplicated endpoint")
}

func TestConservationRejectsDuplicatedEndpoint(t *testing.T) {
	evs := append(validStream(), termEvent{kind: sim.EventWorkerExpired, w: receipt{0, 0}, t: receipt{-1, -1}, time: 10})
	_, err := checkConservation(twoPairLedger(t), evs, 1e9)
	wantErr(t, err, "duplicated endpoint")
}

func TestConservationRejectsUnacknowledgedEndpoint(t *testing.T) {
	evs := append(validStream(), termEvent{kind: sim.EventTaskExpired, w: receipt{-1, -1}, t: receipt{0, 7}, time: 3})
	_, err := checkConservation(twoPairLedger(t), evs, 1e9)
	wantErr(t, err, "unacknowledged endpoint")
}

func TestConservationRejectsMissingOutcome(t *testing.T) {
	evs := validStream()[:2] // task 1/0 never expires
	_, err := checkConservation(twoPairLedger(t), evs, 1e9)
	wantErr(t, err, "never reached a terminal outcome")
	// Past the end of a finished session an object may stay open.
	if _, err := checkConservation(twoPairLedger(t), evs, 2.5); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleRejectsInfeasiblePair(t *testing.T) {
	l := twoPairLedger(t)
	// Worker 1/0 at (50,50) cannot reach task 0/0 at (1,0) within its 2 s expiry.
	evs := []termEvent{{kind: sim.EventMatch, w: receipt{1, 0}, t: receipt{0, 0}, time: 2}}
	wantErr(t, checkFeasible(l, evs, 1, true), "infeasible pair")
	wantErr(t, checkFeasible(l, evs, 1, false), "infeasible pair")
	// A commit after the task's deadline is infeasible for a stationary worker.
	late := []termEvent{{kind: sim.EventMatch, w: receipt{0, 0}, t: receipt{0, 0}, time: 2.5}}
	wantErr(t, checkFeasible(l, late, 1, true), "infeasible pair")
}

func TestAtMostOPTRejectsLargerMatching(t *testing.T) {
	if err := checkAtMostOPT(10, 10); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkAtMostOPT(11, 10), "larger than OPT")
}

func TestSameStreamRejectsOneDifferentEvent(t *testing.T) {
	live := validStream()
	rec := append([]termEvent(nil), live...)
	if err := checkSameStream(live, rec); err != nil {
		t.Fatal(err)
	}
	rec[1].time += 1e-9
	wantErr(t, checkSameStream(live, rec), "differs at event 1")
	wantErr(t, checkSameStream(live, live[:2]), "has 2 events, live 3")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
