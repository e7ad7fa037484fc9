package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one dftserved child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// startServer execs the prebuilt binary on an ephemeral port with the
// shipped defaults, plus a disk store under storeDir when it is set, and
// returns once the server has printed its listening address.
func startServer(bin, storeDir, logPath string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir, "-store-bytes", strconv.Itoa(storeBytes))
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dftserved: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("dftserved exited before listening (see %s)", logPath)
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("dftserved did not report its address within 30s")
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 30s)
// and closes its log.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// cpuTime reads the server's CPU time (utime+stime) from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / ticksPerSecond, nil
}

// peakRSS reads the server's VmHWM from /proc/<pid>/status, in bytes.
func (s *server) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads /metrics and sums every series of each metric name over
// its labels. Histogram buckets and comment lines are skipped.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// storeBytes is the disk store's byte budget: fsstore's 1 MiB floor.
const storeBytes = 1 << 20

// fillerBytes is the size of one filler entry, close to a cold evaluate
// payload so evicting a filler frees room for about one cold write.
const fillerBytes = 700

// writeFillers seeds a fresh store directory with n valid payloads under
// keys no request derives, standing in for results older replicas left
// behind. The store adopts them on open as its oldest entries.
func writeFillers(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := `{"filler":"` + strings.Repeat("x", fillerBytes-len(`{"filler":""}`)) + `"}`
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte("dftbench filler " + strconv.Itoa(i)))
		if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(sum[:])+".json"), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// drain reads and closes a response body so its connection is reused.
func drain(r io.ReadCloser) {
	_, _ = io.Copy(io.Discard, r)
	r.Close()
}
