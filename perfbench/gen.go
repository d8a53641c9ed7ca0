package main

import (
	"math"
	"math/rand/v2"

	"ftoa/internal/wire"
)

// Service area of the server workload: ftoa-serve's default bounds.
const (
	areaSide = 100.0
	velocity = 1.0 // ftoa-serve's default worker velocity, units/s
)

// Input streams are drawn from PCG generators keyed by (seed, stream), so
// the same seed gives the same inputs and each consumer has its own
// independent sequence.
const (
	streamWireConn0 = iota + 1
	streamWireConn1
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// genArrivals draws n admission requests: half workers with patience
// workerWin, half tasks with expiry taskWin. pattern "uniform" spreads
// locations over the whole area; "hotspot" puts 80% of them in a square
// covering 10% of each dimension around the centre (ftoa-loadgen's
// hotspot), which sits on the corner where four of a 4x4 grid's shards
// meet. At is NaN: the server stamps arrivals with its own clock.
func genArrivals(rng *rand.Rand, n int, pattern string, workerWin, taskWin float64) []wire.Request {
	reqs := make([]wire.Request, n)
	for i := range reqs {
		var x, y float64
		if pattern == "hotspot" && rng.Float64() < 0.8 {
			x = areaSide/2 + (rng.Float64()-0.5)*areaSide*0.1
			y = areaSide/2 + (rng.Float64()-0.5)*areaSide*0.1
		} else {
			x = rng.Float64() * areaSide
			y = rng.Float64() * areaSide
		}
		rq := wire.Request{X: x, Y: y, At: math.NaN()}
		if rng.Float64() < 0.5 {
			rq.Kind, rq.Window = wire.ReqAddWorker, workerWin
		} else {
			rq.Kind, rq.Window = wire.ReqAddTask, taskWin
		}
		reqs[i] = rq
	}
	return reqs
}
