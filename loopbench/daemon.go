package main

// A real zmeshd process: started from the binary run.sh builds, reached
// over loopback TCP, observed through /debug/vars and /proc/<pid>.

import (
	"bufio"
	"context"
	"encoding/json"
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

	"repro/internal/telemetry"
	"repro/internal/wire"
)

const listenPrefix = "zmeshd: listening on http://"

type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port
	base   string // http://host:port
	exited chan struct{}
	hc     *http.Client // scrapes only: own transport, own connection
}

// startDaemon execs zmeshd on an ephemeral loopback port and returns once
// it has announced its listen address.
func startDaemon(bin, storeDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = io.Discard
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), hc: &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), listenPrefix); ok {
				addrc <- strings.TrimSpace(a)
			}
		}
		// Wait only after stdout is drained (exec.Cmd's contract).
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		d.base = "http://" + d.addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("zmeshd exited before announcing its address")
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("zmeshd did not announce its address within 20s")
	}
}

// stop sends SIGTERM and waits for the drained exit, killing after 10 s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// vars is the part of /debug/vars the benchmark reads: zmeshd's telemetry
// registry plus the Go runtime's memstats.
type vars struct {
	Tel telemetry.Snapshot
	Mem struct {
		TotalAlloc   uint64
		Mallocs      uint64
		NumGC        uint32
		PauseTotalNs uint64
	}
}

func (d *daemon) scrape(ctx context.Context) (*vars, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+wire.PathVars, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", wire.PathVars, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %d", wire.PathVars, resp.StatusCode)
	}
	var page map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", wire.PathVars, err)
	}
	v := &vars{}
	tel, ok := page["zmeshd."+d.addr]
	if !ok {
		return nil, fmt.Errorf("%s has no zmeshd.%s key", wire.PathVars, d.addr)
	}
	if err := json.Unmarshal(tel, &v.Tel); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(page["memstats"], &v.Mem); err != nil {
		return nil, fmt.Errorf("parsing memstats: %w", err)
	}
	return v, nil
}

// counter and timerNs read one metric; a missing name reads as zero, which
// is what the daemon reports before the first observation.
func (v *vars) counter(name string) int64 { return v.Tel.Counters[name] }

func (v *vars) timerNs(name string) int64 { return v.Tel.Timers[name].TotalNs }

// timerPrefixNs sums every timer whose name starts with prefix
// (encode.stage.codec.<codec> and the like).
func (v *vars) timerPrefixNs(prefix string) int64 {
	var n int64
	for name, t := range v.Tel.Timers {
		if strings.HasPrefix(name, prefix) {
			n += t.TotalNs
		}
	}
	return n
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is the daemon's user+sys CPU time so far, all threads.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB is the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
