package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests build the benchmark and ftoa-serve, start a workload, end
// the benchmark mid-run and assert that no process it started survives.

func buildBinaries(t *testing.T) (bench, serve string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries and runs servers")
	}
	dir := t.TempDir()
	bench, serve = filepath.Join(dir, "perfbench"), filepath.Join(dir, "ftoa-serve")
	for _, b := range [][]string{{bench, "."}, {serve, "ftoa/cmd/ftoa-serve"}} {
		out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", b[1], err, out)
		}
	}
	return bench, serve
}

var startedRE = regexp.MustCompile(`started ftoa-serve pid (\d+)`)

// startBench starts the benchmark on workload and returns it with a
// channel of the server pids it reports, closed when its stderr ends.
func startBench(t *testing.T, bench, serve, workload, tmp string) (*exec.Cmd, <-chan int) {
	t.Helper()
	cmd := exec.Command(bench, "-workload", workload, "-seconds", "30", "-seed", "1",
		"-server-bin", serve, "-tmp", tmp, "-spec", "../BENCHMARK.json")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pids := make(chan int, 64)
	go func() {
		defer close(pids)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := startedRE.FindStringSubmatch(sc.Text()); m != nil {
				pid, _ := strconv.Atoi(m[1])
				pids <- pid
			}
		}
	}()
	return cmd, pids
}

// waitPids collects n pids, failing after a deadline.
func waitPids(t *testing.T, pids <-chan int, n int) []int {
	t.Helper()
	var got []int
	timeout := time.After(60 * time.Second)
	for len(got) < n {
		select {
		case pid, ok := <-pids:
			if !ok {
				t.Fatalf("benchmark exited after starting %d servers, want %d", len(got), n)
			}
			got = append(got, pid)
		case <-timeout:
			t.Fatalf("benchmark started %d servers in 60s, want %d", len(got), n)
		}
	}
	return got
}

// alive reports whether pid names a process that is not a zombie.
func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the parenthesised command name.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	return i < 0 || i+2 >= len(s) || s[i+2] != 'Z'
}

func assertAllGone(t *testing.T, pids []int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for alive(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("server pid %d outlived the benchmark", pid)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// waitEntry waits until dir holds an entry, failing after a deadline.
func waitEntry(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("benchmark made nothing in %s in 60s", dir)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestKilledBenchmarkLeavesNoServer(t *testing.T) {
	bench, serve := buildBinaries(t)
	for _, sig := range []syscall.Signal{syscall.SIGKILL, syscall.SIGTERM, syscall.SIGINT} {
		t.Run("wire-saturate/"+sig.String(), func(t *testing.T) {
			cmd, pidc := startBench(t, bench, serve, "wire-saturate", t.TempDir())
			// The first set-up boots, then the server the load runs
			// against.
			pids := waitPids(t, pidc, bootsBefore+1)
			time.Sleep(time.Second) // mid-run
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			err := cmd.Wait()
			for pid := range pidc {
				pids = append(pids, pid)
			}
			if err == nil {
				t.Fatal("benchmark exited 0 after a signal mid-run")
			}
			assertAllGone(t, pids)
		})
	}
	// replay-polarop starts no server; its WAL dirs live under -tmp, and a
	// benchmark that could clean up removed them.
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		t.Run("replay-polarop/"+sig.String(), func(t *testing.T) {
			tmp := t.TempDir()
			cmd, pidc := startBench(t, bench, serve, "replay-polarop", tmp)
			waitEntry(t, tmp) // a round's WAL dir: mid-run
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			err := cmd.Wait()
			for range pidc {
			}
			if err == nil {
				t.Fatal("benchmark exited 0 after a signal mid-run")
			}
			left, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Fatalf("temp dir still holds %d entries after %v", len(left), sig)
			}
		})
	}
}
