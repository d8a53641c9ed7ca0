package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// repeatFile is what the repeat mode writes and the comparator reads:
// every run's result line, by workload, in seed order.
type repeatFile struct {
	Trace bool                `json:"trace"`
	Runs  map[string][]result `json:"runs"`
}

// repeatRuns runs each named workload n times, seeds 1..n, each as a
// child process of this binary (so each run is as cold as the driver's),
// prints a summary and, if out is set, writes every result there.
func repeatRuns(w io.Writer, sp *spec, names []string, n int, self string, pass []string, trace bool, out string) error {
	rf := repeatFile{Trace: trace, Runs: map[string][]result{}}
	tr := "0"
	if trace {
		tr = "1"
	}
	for _, name := range names {
		for seed := 1; seed <= n; seed++ {
			args := append(append([]string(nil), pass...), "-workload", name, "-seed", strconv.Itoa(seed), "-trace", tr)
			res, err := runChild(self, args)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			rf.Runs[name] = append(rf.Runs[name], *res)
			logf("%s seed %d: correct=%v attempted=%d failed=%d", name, seed, res.Correct, res.Attempted, res.Failed)
		}
	}
	summarize(w, sp, &rf)
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// runChild runs one benchmark run and parses its last output line. The
// child gets SIGTERM if this process dies, and stops its own servers.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line (%v): %s", runErr, tail(stderr.String(), 2000))
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("run failed (%v, correct=%v): %s", runErr, res.Correct, tail(stderr.String(), 2000))
	}
	return &res, nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (its
// default "exclusive" method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(d)-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func metricValues(runs []result, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (rf *repeatFile) metrics(sp *spec) []specMetric {
	if rf.Trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

func sortedWorkloads(rf *repeatFile) []string {
	var names []string
	for name := range rf.Runs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// summarize prints each workload's failed share and each metric's
// median, quartiles and spread, the spread also as a share of the bound.
func summarize(w io.Writer, sp *spec, rf *repeatFile) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	defer tw.Flush()
	for _, name := range sortedWorkloads(rf) {
		runs := rf.Runs[name]
		var att, failed int64
		for _, r := range runs {
			att += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(tw, "%s\t%d runs\tfailed %d of %d\t\t\t\t\n", name, len(runs), failed, att)
		fmt.Fprintln(tw, "  metric\tunit\tq1\tmedian\tq3\tspread\tspread/bound")
		for _, m := range rf.metrics(sp) {
			vs := metricValues(runs, m.Name)
			q1, q2, q3 := quartiles(vs)
			sb := "-"
			if m.Bound > 0 {
				sb = fmt.Sprintf("%.2f", spread(vs)/m.Bound)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%.3f\t%s\n", m.Name, m.Unit, q1, q2, q3, spread(vs), sb)
		}
	}
}

func readRepeatFile(path string) (*repeatFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf repeatFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict classifies one metric's move from base to new runs. A metric
// whose spread on either side is wider than its bound is unresolved
// unless every new run beats every base run; otherwise a median worse by
// more than the bound is a regression, and a median better by more than
// the base's own spread is an improvement.
func verdict(m specMetric, base, cur []float64) string {
	_, bm, _ := quartiles(base)
	_, cm, _ := quartiles(cur)
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	worse := (cm - bm) / math.Abs(bm) // share by which cur is worse
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := len(base) > 0 && len(cur) > 0
	for _, c := range cur {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	switch {
	case m.Bound <= 0:
		if allBetter {
			return "improved"
		}
		return "-"
	case max(spread(base), spread(cur)) > m.Bound && !allBetter:
		return "unresolved"
	case worse > m.Bound:
		return "worse beyond bound"
	case -worse > spread(base) || allBetter:
		return "improved"
	default:
		return "unchanged"
	}
}

// compareFiles prints one row per workload and metric: both medians, the
// relative change and the verdict.
func compareFiles(w io.Writer, sp *spec, basePath, newPath string) error {
	base, err := readRepeatFile(basePath)
	if err != nil {
		return err
	}
	cur, err := readRepeatFile(newPath)
	if err != nil {
		return err
	}
	if base.Trace != cur.Trace {
		return fmt.Errorf("%s and %s hold different run kinds", basePath, newPath)
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tnew median\tchange\tverdict")
	for _, name := range sortedWorkloads(base) {
		cr, ok := cur.Runs[name]
		if !ok {
			continue
		}
		for _, m := range base.metrics(sp) {
			bv, cv := metricValues(base.Runs[name], m.Name), metricValues(cr, m.Name)
			_, bm, _ := quartiles(bv)
			_, cm, _ := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\n", name, m.Name, m.Unit, bm, cm, 100*(cm-bm)/math.Abs(bm), verdict(m, bv, cv))
		}
	}
	return nil
}
