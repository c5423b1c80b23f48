package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark builds or writes at run
// time lives, relative to the repository root (besides bench/out).
const buildDir = ".bench_build"

// repoRoot finds the repository root: the nearest ancestor of the
// working directory that holds cmd/btrace-serve.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "btrace-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: cmd/btrace-serve not found above the working directory")
		}
		dir = parent
	}
}

// goBuild compiles pkg (relative to dir) into root/.bench_build/name.
func goBuild(ctx context.Context, root, dir, pkg, name string) (string, error) {
	out := filepath.Join(root, buildDir, name)
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build %s: %w\n%s", pkg, err, b)
	}
	return out, nil
}

// server is one child process — btrace-serve on a fresh store
// directory, or the control server — with its run directory.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string // run directory: store + log, removed on stop
	log  string
	done chan error
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the box competes
// for ephemeral loopback ports in that window.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots btrace-serve with the benchmark's fixed flush policy
// plus the workload's flags and waits for /readyz.
func startServer(ctx context.Context, root, bin string, flags []string) (*server, error) {
	return startChild(ctx, root, bin, func(addr, dir string) []string {
		return append([]string{
			"-addr", addr, "-store", filepath.Join(dir, "store"),
			// Every 202 is a durability promise, and the flush policy is the
			// same on both sides of any later comparison.
			"-sample-rate", "1", "-shed=false", "-commit-every", "50ms",
		}, flags...)
	})
}

// startControl boots the control server (bench/control).
func startControl(ctx context.Context, root, bin string) (*server, error) {
	return startChild(ctx, root, bin, func(addr, _ string) []string { return []string{"-addr", addr} })
}

// warmControl sends the control server the traffic of a few cycles
// before anything is measured against it: a fresh process answers its
// first thousands of requests at a higher CPU cost each (its heap and
// its pools are still growing), and the first trial of a run would
// otherwise be judged against a slower yardstick than the others.
func warmControl(ctx context.Context, ctl *server) error {
	c := newConn(0, ctl.base, realClock{})
	defer c.close()
	body := make([]byte, 24<<10)
	c.drive(ctx, pacer{}, 0, 1, 3000, func(int, time.Time) error { return c.controlPost(ctx, body) })
	c.drive(ctx, pacer{}, 0, 1, 20, func(int, time.Time) error { return c.controlScan(ctx, controlScanRows) })
	return c.firstErr
}

// startChild boots bin on a free loopback port with a fresh run
// directory for its files and its log, and waits for /readyz.
func startChild(ctx context.Context, root, bin string, args func(addr, dir string) []string) (*server, error) {
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{base: "http://" + addr, dir: dir, log: filepath.Join(dir, "serve.log"), done: make(chan error, 1)}
	logf, err := os.Create(s.log)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.cmd = exec.Command(bin, args(addr, dir)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// Its own process group: a terminal Ctrl-C reaches the benchmark
	// only, which then stops the child in order.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	err = s.cmd.Start()
	logf.Close()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	if err := s.waitReady(ctx); err != nil {
		s.dumpLog()
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("bench: %s exited before ready: %v", filepath.Base(s.cmd.Path), err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: %s not ready after 20s", filepath.Base(s.cmd.Path))
}

func (s *server) dumpLog() {
	b, _ := os.ReadFile(s.log)
	fmt.Fprintf(os.Stderr, "---- %s log ----\n%s--------\n", filepath.Base(s.cmd.Path), b)
}

// stop terminates the child (SIGTERM, then SIGKILL after its own drain
// deadline), waits for it and removes the run directory.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	os.RemoveAll(s.dir)
}

// cpuSeconds is the CPU time the child has used: the sum over its
// threads of the scheduler's own run-time clock (/proc/…/schedstat,
// nanoseconds). utime+stime in /proc/…/stat are sampled on a 10 ms
// tick, which misjudges a server that runs in bursts far shorter.
func (s *server) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("bench: no /proc schedstat for pid %d", s.cmd.Process.Pid)
	}
	var ns uint64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ran, _, _ := strings.Cut(string(b), " ")
		n, err := strconv.ParseUint(ran, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bench: malformed %s: %q", t, b)
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

// selfCPUSeconds is the loader's own CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB reads the child's resident-set high-water mark.
func (s *server) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc status")
}

// metricsText is a scrape of the child's Prometheus text endpoint:
// series name (labels included, as printed) to value.
type metricsText map[string]float64

func parseMetrics(r io.Reader) (metricsText, error) {
	m := metricsText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bench: malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bench: malformed metrics line %q", line)
		}
		m[strings.TrimSpace(line[:i])] = v
	}
	return m, sc.Err()
}

func (s *server) scrape(hc *http.Client) (metricsText, error) {
	resp, err := hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: /metrics status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// delta is after[name] - before[name].
func delta(before, after metricsText, name string) float64 { return after[name] - before[name] }

// histQuantile estimates quantile q of the histogram family name from
// the growth of its cumulative buckets between two scrapes, by linear
// interpolation inside the bucket that holds it. NaN without samples.
func histQuantile(before, after metricsText, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k := range after {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				continue // +Inf parses; anything else is not a bucket
			}
			bs = append(bs, bucket{le, delta(before, after, k)})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return math.NaN()
	}
	want := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= want {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(want-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}
