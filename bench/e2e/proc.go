package main

import (
	"bufio"
	"bytes"
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
	"sync"
	"syscall"
	"time"

	"dense802154/internal/telemetry"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// buildServer compiles the repository's cmd/wsn-serve into out.
func buildServer(root, out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(out, "wsn-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wsn-serve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build wsn-serve: %w", err)
	}
	return bin, nil
}

// server is one wsn-serve process started by the benchmark.
type server struct {
	cmd    *exec.Cmd
	url    string // base URL of the API listener
	pprof  string // base URL of the -pprof listener
	stderr *tailBuffer
	exited chan struct{} // closed once Wait has returned
}

// tailBuffer keeps the last few KiB a server wrote to stderr, for error
// reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with wsn-serve's default flags plus -quiet,
// -workers and -pprof (and -peers for a coordinator). The child is killed if
// the benchmark dies.
func startServer(bin string, workers int, peers []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	pport, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	paddr := "127.0.0.1:" + strconv.Itoa(pport)
	args := []string{"-addr", addr, "-quiet", "-workers", strconv.Itoa(workers), "-pprof", paddr}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	s := &server{
		cmd:    exec.Command(bin, args...),
		url:    "http://" + addr,
		pprof:  "http://" + paddr,
		stderr: &tailBuffer{},
		exited: make(chan struct{}),
	}
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is reported through exited
		close(s.exited)
	}()
	return s, nil
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := probeClient.Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("wsn-serve exited before ready: %s", s.stderr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wsn-serve not ready after %v: %s", timeout, s.stderr)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, then SIGKILL if the drain takes too long, and waits
// for the process to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// fleet is the set of processes serving one workload; the first is the one
// clients talk to.
type fleet []*server

func (f fleet) stop() {
	for _, s := range f {
		s.stop()
	}
}

// startFleet launches a workload's processes and waits until every one is
// ready: one server with two worker tokens, or for dist a coordinator with
// two single-token workers as peers.
func startFleet(bin string, dist bool) (fleet, error) {
	if !dist {
		s, err := startServer(bin, 2, nil)
		if err != nil {
			return nil, err
		}
		if err := s.waitReady(15 * time.Second); err != nil {
			s.stop()
			return nil, err
		}
		return fleet{s}, nil
	}
	workers, err := startWorkers(bin)
	if err != nil {
		return nil, err
	}
	coord, err := startServer(bin, 1, []string{workers[0].url, workers[1].url})
	if err != nil {
		workers.stop()
		return nil, err
	}
	f := append(fleet{coord}, workers...)
	if err := coord.waitReady(15 * time.Second); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// startWorkers launches the two single-token dist workers.
func startWorkers(bin string) (fleet, error) {
	var f fleet
	for i := 0; i < 2; i++ {
		s, err := startServer(bin, 1, nil)
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, s)
	}
	for _, s := range f {
		if err := s.waitReady(15 * time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// procSample is what the benchmark reads about one process from outside:
// CPU time from /proc/<pid>/stat, peak RSS from /proc/<pid>/status and the
// runtime.MemStats footer of /debug/pprof/allocs?debug=1.
type procSample struct {
	cpuTicks int64
	hwmKB    int64
	mallocs  uint64
	allocB   uint64 // cumulative bytes allocated (TotalAlloc)
	numGC    uint64
	pauseNs  [256]uint64
}

func (s *server) sample() (procSample, error) {
	var p procSample
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return p, err
	}
	p.cpuTicks = ut + st

	status, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			p.hwmKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return p, err
			}
		}
	}

	resp, err := probeClient.Get(s.pprof + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var seen int
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# Mallocs = "):
			p.mallocs, err = strconv.ParseUint(line[len("# Mallocs = "):], 10, 64)
			seen++
		case strings.HasPrefix(line, "# TotalAlloc = "):
			p.allocB, err = strconv.ParseUint(line[len("# TotalAlloc = "):], 10, 64)
			seen++
		case strings.HasPrefix(line, "# NumGC = "):
			p.numGC, err = strconv.ParseUint(line[len("# NumGC = "):], 10, 64)
			seen++
		case strings.HasPrefix(line, "# PauseNs = ["):
			for i, v := range strings.Fields(strings.Trim(line[len("# PauseNs = "):], "[]")) {
				if i < len(p.pauseNs) {
					p.pauseNs[i], err = strconv.ParseUint(v, 10, 64)
				}
			}
			seen++
		}
		if err != nil {
			return p, fmt.Errorf("MemStats footer: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	if seen != 4 {
		return p, errors.New("no runtime.MemStats footer in /debug/pprof/allocs")
	}
	return p, nil
}

// gcPauseNs sums the stop-the-world pauses of the collections between a and
// b. The runtime keeps the last 256 pauses; beyond that the mean of the ring
// stands in for the overwritten ones.
func gcPauseNs(a, b procSample) float64 {
	n := b.numGC - a.numGC
	var sum float64
	if n > uint64(len(b.pauseNs)) {
		for _, v := range b.pauseNs {
			sum += float64(v)
		}
		return sum * float64(n) / float64(len(b.pauseNs))
	}
	for k := uint64(0); k < n; k++ {
		sum += float64(b.pauseNs[(a.numGC+k)%uint64(len(b.pauseNs))])
	}
	return sum
}

// fleetSample is one reading of every process of a fleet.
type fleetSample struct {
	at    time.Time
	procs []procSample
}

func (f fleet) sample() (fleetSample, error) {
	fs := fleetSample{procs: make([]procSample, len(f))}
	for i, s := range f {
		p, err := s.sample()
		if err != nil {
			return fs, fmt.Errorf("sample %s: %w", s.url, err)
		}
		fs.procs[i] = p
	}
	fs.at = time.Now()
	return fs, nil
}

// usage is the resource use of a fleet between two samples.
type usage struct {
	cpuMS   float64
	mallocs float64
	allocKB float64
	gcs     float64
	pauseMS float64
	hwmMB   float64 // summed peak RSS at the later sample
}

func between(a, b fleetSample) usage {
	var u usage
	for i := range b.procs {
		u.cpuMS += float64(b.procs[i].cpuTicks-a.procs[i].cpuTicks) * 1e3 / clockTicks
		u.mallocs += float64(b.procs[i].mallocs - a.procs[i].mallocs)
		u.allocKB += float64(b.procs[i].allocB-a.procs[i].allocB) / 1024
		u.gcs += float64(b.procs[i].numGC - a.procs[i].numGC)
		u.pauseMS += gcPauseNs(a.procs[i], b.procs[i]) / 1e6
		u.hwmMB += float64(b.procs[i].hwmKB) / 1024
	}
	return u
}

// scrape reads /metrics of every process and sums each series by family
// name and suffix over label sets and processes (histogram buckets are
// dropped; _sum and _count are kept). Max-gauges are combined with max.
func (f fleet) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, s := range f {
		resp, err := probeClient.Get(s.url + "/metrics")
		if err != nil {
			return nil, err
		}
		fams, err := telemetry.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("parse %s/metrics: %w", s.url, err)
		}
		for _, fam := range fams {
			for _, smp := range fam.Samples {
				if smp.Suffix == "_bucket" {
					continue
				}
				k := fam.Name + smp.Suffix
				if strings.HasSuffix(fam.Name, "_max") {
					out[k] = max(out[k], smp.Value)
				} else {
					out[k] += smp.Value
				}
			}
		}
	}
	return out, nil
}
