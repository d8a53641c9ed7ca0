// Command perfbench is the repository's benchmark: one command that
// builds nothing itself (perfbench/run.sh builds it and ftoa-serve), runs
// one workload for a fixed time, checks the workload's outputs, and prints
// one JSON line with every metric BENCHMARK.json declares.
//
//	perfbench -workload wire-saturate -seed 1 -seconds 10 -trace 0
//
// -trace 0 runs the workload end to end (servers are driven from outside
// over loopback sockets) and reports the end-to-end metrics; -trace 1
// reruns the workload's generated inputs through the layers in process,
// with a span around every call, and reports the per-layer metrics.
//
// Two helper modes sit beside it:
//
//	perfbench -repeat 10 -out a.json [-workload name,...]
//	perfbench -compare a.json,b.json
//
// The repeat mode reruns this binary once per seed and prints each
// metric's median and quartiles with the spread as a share of its bound;
// the comparator reads two such files and classifies every workload and
// metric as improved, worse beyond the bound, unresolved or unchanged.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one run from start to exit, well inside the 180 s a
// run may take.
const runBudget = 170 * time.Second

// spec is the part of BENCHMARK.json the benchmark reads: metric names,
// units, directions and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: operation counts, metric
// values by name, and the first output check that failed (nil if all
// held).
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	checkErr          error
}

// env carries a run's parameters and the processes it started.
type env struct {
	seed      uint64
	seconds   time.Duration
	serverBin string
	tmp       string
	procs     *procSet
}

type workload struct {
	name  string
	run   func(ctx context.Context, e *env) (*outcome, error)
	trace func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"wire-saturate", runWireSaturate, traceWireSaturate},
	{"replay-polarop", runReplay, traceReplay},
}

func main() {
	name := flag.String("workload", "", "workload to run: wire-saturate or replay-polarop")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pipeline instead of the end-to-end workload")
	serverBin := flag.String("server-bin", "", "ftoa-serve binary to exec (run.sh builds it)")
	tmp := flag.String("tmp", "", "directory for WAL and scratch dirs (default: the system temp dir)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with the metric names, units and bounds")
	repeat := flag.Int("repeat", 0, "repeat mode: run each workload this many times (seeds 1..N) and summarise")
	out := flag.String("out", "", "repeat mode: write the collected results to this JSON file")
	compare := flag.String("compare", "", "compare mode: two repeat-mode result files, base,new")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare != "":
		files := strings.Split(*compare, ",")
		if len(files) != 2 {
			fatal(errors.New("-compare wants two files: base,new"))
		}
		if err := compareFiles(os.Stdout, sp, files[0], files[1]); err != nil {
			fatal(err)
		}
		return
	case *repeat > 0:
		var names []string
		if *name != "" {
			names = strings.Split(*name, ",")
		} else {
			for _, w := range sp.Workloads {
				names = append(names, w.Name)
			}
		}
		if err := repeatRuns(os.Stdout, sp, names, *repeat, os.Args[0], passThrough(), *trace == 1, *out); err != nil {
			fatal(err)
		}
		return
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *serverBin == "" {
		fatal(errors.New("-server-bin is required"))
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	// Load comes from this one process; it uses no more CPUs than the
	// machine has, and at most two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The collected samples and ledgers are small; collecting less often
	// keeps the collector's pauses out of the client-side timings.
	debug.SetGCPercent(400)

	e := &env{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		serverBin: *serverBin,
		tmp:       *tmp,
		procs:     newProcSet(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", sig)
		cancel()
		// A second signal, or a workload slow to notice the cancel,
		// still ends every child before the process exits.
		select {
		case <-sigs:
		case <-time.After(stopGrace + 5*time.Second):
		}
		e.procs.stopAll()
		os.Exit(1)
	}()

	metrics := sp.EndToEnd
	run := wl.run
	if *trace == 1 {
		metrics, run = sp.PerLayer, wl.trace
	}
	o, err := run(ctx, e)
	if err == nil && ctx.Err() != nil {
		// A signal or the run budget ended the run, even if the workload
		// was past its last cancellable step.
		err = ctx.Err()
	}
	e.procs.stopAll()
	cancel()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", wl.name, err))
	}
	res := result{Correct: o.checkErr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, m := range metrics {
		v, ok := o.values[m.Name]
		if !ok {
			fatal(fmt.Errorf("%s: metric %s was not measured", wl.name, m.Name))
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	// Figures measured but not declared (the 99th percentiles, which
	// this shared machine's scheduling stalls make too unsteady to gate)
	// go to stderr.
	var extra []string
	for name, v := range o.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, fmt.Sprintf("%s=%.6g", name, v))
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		logf("%s: also measured: %s", wl.name, strings.Join(extra, " "))
	}
	if o.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", wl.name, o.checkErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if o.checkErr != nil {
		os.Exit(1)
	}
}

// passThrough returns the flags a repeat-mode child needs besides
// -workload, -seed and -trace.
func passThrough() []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seconds", "server-bin", "tmp", "spec":
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	return args
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// percentiles sorts xs in place and returns its median and 99th
// percentile.
func percentiles(xs []float64) (p50, p99 float64) {
	sort.Float64s(xs)
	return quantile(xs, 0.5), quantile(xs, 0.99)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms converts a duration in nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// timed is one latency sample and when its clock started, in ns since
// the run's start.
type timed struct {
	at int64
	ms float64
}

// minWindowSamples is the fewest samples a window needs for its 99th
// percentile to have ten samples beyond it.
const minWindowSamples = 1000

// windowed splits samples into consecutive windows of width ns from
// from on, and returns the median over the windows of each window's
// median and 99th percentile: one stall on a shared machine moves one
// window, not the run's figure. Windows with fewer than
// minWindowSamples samples are skipped; with none left, the percentiles
// are taken over all samples.
func windowed(samples []timed, from, width int64) (p50, p99 float64) {
	byWin := map[int64][]float64{}
	var all []float64
	for _, s := range samples {
		if s.at < from {
			continue
		}
		k := (s.at - from) / width
		byWin[k] = append(byWin[k], s.ms)
		all = append(all, s.ms)
	}
	var p50s, p99s []float64
	for _, xs := range byWin {
		if len(xs) < minWindowSamples {
			continue
		}
		a, b := percentiles(xs)
		p50s, p99s = append(p50s, a), append(p99s, b)
	}
	if len(p50s) == 0 {
		return percentiles(all)
	}
	return median(p50s), median(p99s)
}
