package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oak"
	"oak/internal/report"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// sutNice is the niceness the SUT processes run at.
const sutNice = 10

// SUT is the system under test: oakd (or oakgw over two oakd backends)
// running as child processes on loopback.
type SUT struct {
	Base     string   // URL the generator drives
	Backends []string // oakd base URLs
	procs    []*exec.Cmd
	dirs     []string
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// StartSUT launches the workload's processes from the binaries in bin and
// waits until each answers its health endpoint. scratch holds spill
// directories and process logs.
func StartSUT(bin, scratch string, w Workload, root, ruleFile string) (*SUT, error) {
	s := &SUT{}
	nodes := 1
	if w.Gateway {
		nodes = 2
	}
	for i := 0; i < nodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return s, err
		}
		args := []string{"-root", root, "-rules", ruleFile, "-addr", addr}
		if w.SpillCap > 0 {
			dir, err := os.MkdirTemp(scratch, "spill-")
			if err != nil {
				return s, err
			}
			s.dirs = append(s.dirs, dir)
			args = append(args, "-profile-cache", strconv.Itoa(w.SpillCap), "-spill-dir", dir)
		}
		if err := s.spawn(filepath.Join(bin, "oakd"), scratch, fmt.Sprintf("oakd-%d.log", i), args); err != nil {
			return s, err
		}
		s.Backends = append(s.Backends, "http://"+addr)
	}
	s.Base = s.Backends[0]
	if w.Gateway {
		addr, err := freeAddr()
		if err != nil {
			return s, err
		}
		if err := s.spawn(filepath.Join(bin, "oakgw"), scratch, "oakgw.log",
			[]string{"-addr", addr, "-backends", strings.Join(s.Backends, ",")}); err != nil {
			return s, err
		}
		s.Base = "http://" + addr
	}
	for _, b := range append([]string{s.Base}, s.Backends...) {
		if err := waitReady(b); err != nil {
			return s, err
		}
	}
	return s, nil
}

func (s *SUT) spawn(path, scratch, logName string, args []string) error {
	logf, err := os.Create(filepath.Join(scratch, logName))
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	// The SUT runs at a lower scheduling priority than the generator, so on
	// a small machine the generator's sends are not queued behind the SUT's
	// bursts (its garbage collector, mostly) and its lateness stays small.
	cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(sutNice), path}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The children must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", filepath.Base(path), err)
	}
	s.procs = append(s.procs, cmd)
	return nil
}

// waitReady polls base's health endpoint until it answers 200.
func waitReady(base string) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/oak/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 60s", base)
}

// Stop terminates every process (SIGTERM, then SIGKILL after 10 s), waits
// for each, and removes the spill directories.
func (s *SUT) Stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		p := s.procs[i]
		_ = p.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
	}
	s.procs = nil
	for _, d := range s.dirs {
		_ = os.RemoveAll(d)
	}
}

// CPU is the summed user+system CPU time of the SUT processes so far.
func (s *SUT) CPU() (time.Duration, error) {
	var ticks int64
	for _, p := range s.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		rest := data[bytes.LastIndexByte(data, ')')+2:]
		f := strings.Fields(string(rest))
		for _, k := range []int{11, 12} {
			v, err := strconv.ParseInt(f[k], 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += v
		}
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// PeakRSS is the sum of the SUT processes' VmHWM, in bytes.
func (s *SUT) PeakRSS() (int64, error) {
	var total int64
	for _, p := range s.procs {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				total += kb << 10
			}
		}
		f.Close()
	}
	return total, nil
}

// Counters reads the decision counters from every backend's
// /oak/v1/metrics and sums them.
func (s *SUT) Counters() (oak.EngineMetrics, error) {
	var sum oak.EngineMetrics
	for _, b := range s.Backends {
		resp, err := http.Get(b + "/oak/v1/metrics")
		if err != nil {
			return sum, err
		}
		var m struct {
			Counters oak.EngineMetrics `json:"counters"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("decode %s metrics: %w", b, err)
		}
		sum.RuleActivations += m.Counters.RuleActivations
		sum.ViolationsDetected += m.Counters.ViolationsDetected
		sum.BreakerTrips += m.Counters.BreakerTrips
	}
	return sum, nil
}

// Warm brings a fresh SUT to the workload's starting state: every setup
// report, in user order, as OAKRPT1 batches of frames that carry their own
// userId; then, for workloads that start with a warm rewrite cache, one
// fetch of every page of every user's site.
func Warm(base string, f *Fixture, setup []*report.Report) error {
	c := &http.Client{Timeout: 60 * time.Second}
	defer c.CloseIdleConnections()
	const perBatch = 1000
	var body, scratch []byte
	for i := 0; i < len(setup); i += perBatch {
		body = body[:0]
		end := min(i+perBatch, len(setup))
		for _, r := range setup[i:end] {
			body, scratch = report.AppendBinaryFrame(body, scratch, r)
		}
		resp, err := c.Post(base+"/oak/v1/report", "application/x-oak-report-batch", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("setup batch: %w", err)
		}
		var res oak.BatchResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || res.Processed != end-i {
			return fmt.Errorf("setup batch: status %d, %+v, %v", resp.StatusCode, res, err)
		}
	}
	if !f.W.WarmPages {
		return nil
	}
	for u := 0; u < f.W.Users; u++ {
		for _, p := range f.sitePages(f.home[u]) {
			req, err := http.NewRequest(http.MethodGet, base+p, nil)
			if err != nil {
				return err
			}
			req.Header.Set("Cookie", "oak-user="+UserID(u))
			resp, err := c.Do(req)
			if err != nil {
				return fmt.Errorf("warm page: %w", err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("warm page %s: status %d", p, resp.StatusCode)
			}
		}
	}
	return nil
}
