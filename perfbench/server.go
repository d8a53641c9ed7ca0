package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ftoa/internal/wire"
)

// stopGrace is how long a server gets to drain after SIGTERM before its
// process group is killed.
const stopGrace = 5 * time.Second

// bootTimeout bounds exec → ready (both listeners bound, /healthz 200
// and a wire handshake completed).
const bootTimeout = 30 * time.Second

var (
	wireLineRE = regexp.MustCompile(`wire protocol v\d+ on (\S+) `)
	httpLineRE = regexp.MustCompile(`matching on (\S+) \(`)
)

// server is one ftoa-serve child. It runs in its own process group with
// a parent-death signal, so it cannot outlive the benchmark even when
// the benchmark is killed outright; stop ends it on every other path.
type server struct {
	cmd      *exec.Cmd
	HTTP     string // bound HTTP address, from the boot log
	Wire     string // bound wire address, from the boot log
	waitDone chan struct{}
	waitErr  error

	mu  sync.Mutex
	log []string // stderr lines, for diagnostics
}

// procSet tracks every server the benchmark started so that each exit
// path — normal end, failed check, error, or a signal — stops them all.
type procSet struct {
	mu      sync.Mutex
	servers map[*server]struct{}
	dirs    []string
}

func newProcSet() *procSet { return &procSet{servers: make(map[*server]struct{})} }

// tempDir makes a directory under base that stopAll removes.
func (ps *procSet) tempDir(base, pattern string) (string, error) {
	d, err := os.MkdirTemp(base, pattern)
	if err != nil {
		return "", err
	}
	ps.mu.Lock()
	ps.dirs = append(ps.dirs, d)
	ps.mu.Unlock()
	return d, nil
}

// stopAll stops every live server and removes every temp dir.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	servers := make([]*server, 0, len(ps.servers))
	for s := range ps.servers {
		servers = append(servers, s)
	}
	dirs := ps.dirs
	ps.dirs = nil
	ps.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.stop(s)
		}()
	}
	wg.Wait()
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// start execs bin with args plus loopback listeners on ephemeral ports,
// reads the bound addresses from the boot log, and waits until the
// server answers /healthz and completes a wire handshake. It returns the
// exec → ready time.
func (ps *procSet) start(ctx context.Context, bin string, args []string) (*server, time.Duration, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-listen-wire", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	s := &server{cmd: cmd, waitDone: make(chan struct{})}
	logf("started ftoa-serve pid %d", cmd.Process.Pid)
	ps.mu.Lock()
	ps.servers[s] = struct{}{}
	ps.mu.Unlock()
	addrs := make(chan [2]string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		var wireAddr string
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if len(s.log) < 200 {
				s.log = append(s.log, line)
			}
			s.mu.Unlock()
			if m := wireLineRE.FindStringSubmatch(line); m != nil {
				wireAddr = m[1]
			}
			if m := httpLineRE.FindStringSubmatch(line); m != nil && !sent {
				addrs <- [2]string{m[1], wireAddr}
				sent = true
			}
		}
	}()
	go func() {
		<-logDone // Wait closes the pipe; read it to the end first
		s.waitErr = cmd.Wait()
		close(s.waitDone)
	}()

	fail := func(err error) (*server, time.Duration, error) {
		ps.stop(s)
		return nil, 0, fmt.Errorf("%w; server log:\n%s", err, s.logText())
	}
	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	select {
	case a := <-addrs:
		s.HTTP, s.Wire = a[0], a[1]
	case <-s.waitDone:
		return fail(fmt.Errorf("ftoa-serve exited during boot: %v", s.waitErr))
	case <-deadline.C:
		return fail(errors.New("ftoa-serve boot log incomplete"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	if s.Wire == "" {
		return fail(errors.New("ftoa-serve did not report a wire listener"))
	}
	for {
		if ok, err := s.ready(); ok {
			break
		} else if time.Since(t0) > bootTimeout {
			return fail(fmt.Errorf("ftoa-serve not ready: %v", err))
		}
		select {
		case <-s.waitDone:
			return fail(fmt.Errorf("ftoa-serve exited during boot: %v", s.waitErr))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return s, time.Since(t0), nil
}

// ready reports whether /healthz answers 200 and a wire handshake
// completes.
func (s *server) ready() (bool, error) {
	resp, err := http.Get("http://" + s.HTTP + "/healthz")
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("/healthz: %s", resp.Status)
	}
	c, err := net.DialTimeout("tcp", s.Wire, time.Second)
	if err != nil {
		return false, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Second))
	if _, err := wire.ClientHandshake(wire.NewConn(c), wire.RandomClientID()); err != nil {
		return false, err
	}
	return true, nil
}

// stop sends SIGTERM to the server's process group, waits up to
// stopGrace for it to drain, then kills the group and waits it out.
func (ps *procSet) stop(s *server) {
	pgid := s.cmd.Process.Pid // Setpgid: the group id is the leader's pid
	select {
	case <-s.waitDone:
	default:
		syscall.Kill(-pgid, syscall.SIGTERM)
		select {
		case <-s.waitDone:
		case <-time.After(stopGrace):
		}
	}
	// Kill whatever is left of the group even after the leader exited.
	syscall.Kill(-pgid, syscall.SIGKILL)
	<-s.waitDone
	ps.mu.Lock()
	delete(ps.servers, s)
	ps.mu.Unlock()
}

func (s *server) logText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, "\n")
}

// memStatus reads a memory field of the server's /proc status, such as
// VmRSS or VmHWM (the peak resident set), in bytes.
func (s *server) memStatus(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not found in /proc status", field)
}
