package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs tracks every live gsimd child so that any harness exit path —
// normal return, failure, SIGINT/SIGTERM — kills and reaps them.
var procs struct {
	sync.Mutex
	live map[*gsimd]struct{}
}

// killAll SIGKILLs and reaps every child still running.
func killAll() {
	procs.Lock()
	live := make([]*gsimd, 0, len(procs.live))
	for g := range procs.live {
		live = append(live, g)
	}
	procs.Unlock()
	for _, g := range live {
		g.kill()
	}
}

// gsimd is one child server process.
type gsimd struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	boot   time.Duration // exec → /readyz 200
	done   chan struct{} // closed once Wait returned
	peakMB float64       // VmHWM sampled just before the process was stopped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// buildGsimd compiles ./cmd/gsimd from the repository at root into dir.
func buildGsimd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "gsimd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gsimd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gsimd: %w\n%s", err, out)
	}
	return bin, nil
}

// startGsimd boots bin with args on a free loopback port and waits for
// /readyz to answer 200; boot is the exec → ready time.
func startGsimd(bin, logPath string, args ...string) (*gsimd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the harness itself be killed, the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gsimd: %w", err)
	}
	g := &gsimd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*gsimd]struct{})
	}
	procs.live[g] = struct{}{}
	procs.Unlock()
	go func() {
		cmd.Wait() // exit status is irrelevant: the harness kills it
		procs.Lock()
		delete(procs.live, g)
		procs.Unlock()
		close(g.done)
	}()
	if err := g.waitReady(start, 120*time.Second); err != nil {
		g.kill()
		return nil, fmt.Errorf("%w (log tail: %s)", err, tail(logPath, 400))
	}
	return g, nil
}

// waitReady polls /readyz until it answers 200, the child dies or the
// timeout passes.
func (g *gsimd) waitReady(start time.Time, timeout time.Duration) error {
	probe := &http.Client{Timeout: time.Second}
	for time.Since(start) < timeout {
		select {
		case <-g.done:
			return errors.New("gsimd exited before becoming ready")
		default:
		}
		resp, err := probe.Get(g.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				g.boot = time.Since(start)
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("gsimd not ready after %v", timeout)
}

// samplePeak records the child's peak resident set (VmHWM) so far.
func (g *gsimd) samplePeak() {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", g.cmd.Process.Pid))
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
				g.peakMB = kb / 1024
			}
			return
		}
	}
}

// kill is process death: SIGKILL, then reap.
func (g *gsimd) kill() {
	g.samplePeak()
	g.cmd.Process.Kill()
	<-g.done
}

// stop is a graceful shutdown (SIGTERM: drain, final checkpoint); a
// child that has not exited after 30 s is killed.
func (g *gsimd) stop() {
	g.samplePeak()
	g.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-g.done:
	case <-time.After(30 * time.Second):
		g.kill()
	}
}

// tail returns the last n bytes of a file, for error messages.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
