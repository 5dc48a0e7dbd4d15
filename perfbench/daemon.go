package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one scrutinizerd process under test: loopback only, on a
// free port, with its own -data-dir. Every started daemon is tracked in
// live until it has been killed and waited for, so killAll can stop the
// stragglers on any exit path.
type daemon struct {
	dataDir string
	logPath string
	base    string
	cmd     *exec.Cmd
	started time.Time
	state   *os.ProcessState
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin over dataDir and returns once the process is
// running (not yet ready; see waitReady). The daemon's own default corpus
// is kept tiny: no workload uses it, and it is rebuilt on every boot.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-claims", "20",
		"-parallel", strconv.Itoa(clients),
		"-log-level", "warn",
	)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the benchmark itself be killed outright, the kernel takes
	// the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{dataDir: dataDir, logPath: logPath, base: "http://" + addr, cmd: cmd}
	d.started = time.Now()
	err = cmd.Start()
	// The child holds its own descriptor now.
	logf.Close()
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	return d, nil
}

// waitReady polls /readyz until it answers 200 and returns the time since
// the process was started: the boot (and journal replay) a client waits
// out before it is served.
func (d *daemon) waitReady(ctx context.Context, timeout time.Duration) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return 0, err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("daemon %s not ready after %v (log: %s)", d.base, timeout, d.logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL — a crash, not a shutdown — and waits for the
// process to be reaped. Safe to call more than once.
func (d *daemon) kill() {
	liveMu.Lock()
	running := live[d]
	delete(live, d)
	liveMu.Unlock()
	if !running {
		return
	}
	_ = d.cmd.Process.Kill() // fails only if it already exited; Wait reaps either way
	_ = d.cmd.Wait()         // "signal: killed" is the expected outcome
	d.state = d.cmd.ProcessState
}

// peakRSSMB is the killed process's peak resident set (VmHWM) in MiB, from
// the kernel's rusage for that child.
func (d *daemon) peakRSSMB() float64 {
	if d.state == nil {
		return 0
	}
	ru, ok := d.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// killAll stops every daemon still running.
func killAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// recoverRepeats is how often a crashed daemon is restarted and timed.
const recoverRepeats = 2

// bootDaemon starts a daemon over dataDir and waits until it is ready.
func bootDaemon(o options, dataDir, logPath string) (*daemon, time.Duration, error) {
	d, err := startDaemon(o.daemon, dataDir, logPath)
	if err != nil {
		return nil, 0, err
	}
	ready, err := d.waitReady(bgCtx, 2*time.Minute)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, ready, nil
}

// setupDaemons boots setupRepeats daemons, each on a fresh data
// directory, and runs register on each; the figure is the median of boot
// plus register. All but the last daemon are killed and their state
// removed.
func setupDaemons(o options, dir string, register func(c *apiClient) error) (*daemon, *apiClient, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", i))
		t0 := time.Now()
		d, _, err := bootDaemon(o, dataDir, filepath.Join(dir, "daemon.log"))
		if err != nil {
			return nil, nil, nil, err
		}
		c := newAPIClient(d.base)
		if err := register(c); err != nil {
			d.kill()
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return d, c, times, nil
		}
		d.kill()
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, nil, nil, err
		}
	}
}

// crashAndRecover SIGKILLs d, then restarts a daemon over the same data
// directory recoverRepeats times, timing each boot to ready. verify runs
// against every restarted daemon (first is true on the first restart). It
// returns the recovery times and the daemon's own replay time from the
// first restart.
func crashAndRecover(o options, c *apiClient, d *daemon, dir string, tr *tracer,
	verify func(rc *apiClient, first bool) error) ([]float64, float64, error) {
	d.kill()
	var times []float64
	var storeRecovery float64
	for i := 0; i < recoverRepeats; i++ {
		rd, ready, err := bootDaemon(o, d.dataDir, filepath.Join(dir, "daemon.log"))
		if err != nil {
			return nil, 0, fmt.Errorf("restart %d: %w", i+1, err)
		}
		tr.add(0, 0, "daemon.recover", "", rd.started, rd.started.Add(ready))
		times = append(times, ready.Seconds())
		rc := newAPIClient(rd.base)
		err = verify(rc, i == 0)
		if err == nil && i == 0 && o.trace {
			var m promScrape
			if m, err = rc.metrics(); err == nil {
				storeRecovery = m.get("scrutinizer_store_recovery_seconds")
			}
		}
		rd.kill()
		c.attempted.Add(rc.attempted.Load())
		c.failed.Add(rc.failed.Load())
		if err != nil {
			return nil, 0, err
		}
	}
	return times, storeRecovery, nil
}
