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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one spawned process.
type proc struct {
	name string
	args []string // the exact command line after the binary
	url  string   // base URL it serves on
	cmd  *exec.Cmd
	log  string // file holding its stdout and stderr
	done chan struct{}
	err  error // set when done is closed
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// spawn starts bin with args, logging into dir. The child is killed if the
// benchmark dies first.
func spawn(name, bin string, args []string, addr, dir string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, args: args, url: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down (SIGTERM), kills it if it has not
// exited within grace, and waits until it has.
func (p *proc) stop(grace time.Duration) {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill() // as above
		<-p.done
	}
}

// logTail returns the last lines of the process's log, for error reports.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls GET /v1/readyz until it answers 200, the process exits,
// or ctx expires.
func waitReady(ctx context.Context, hc *http.Client, p *proc) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v\n%s", p.name, p.err, p.logTail())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// procStat reads a process's CPU time (user+system) and peak resident set
// size from /proc.
func procStat(pid int) (cpu time.Duration, hwmMB float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("malformed /proc stat times")
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	cpu = time.Duration(ut+st) * time.Second / ticksPerSecond

	sf, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, 0, err
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, errors.New("no VmHWM in /proc status")
}

// hostCPU reads the machine-wide CPU time counters from /proc/stat: the
// total and the part stolen by the hypervisor (time this virtual machine
// was runnable but the host ran something else).
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, errors.New("malformed /proc/stat")
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// fsType names the filesystem holding path, since an fsync on tmpfs costs
// nothing and makes the durable workload meaningless.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// scrape fetches a server's /v1/metrics and returns every sample keyed by
// its series (name plus label set, as exposed).
func scrape(ctx context.Context, hc *http.Client, p *proc) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics on %s: HTTP %d", p.name, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// parseExposition reads Prometheus text-format samples.
func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
