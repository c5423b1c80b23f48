package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"btrace/internal/tracer"
)

// serveMainEnv, set in a child's environment, makes the test binary run
// main (TestMain).
const serveMainEnv = "BTRACE_SERVE_TEST_MAIN"

var updateInventory = flag.Bool("update", false, "rewrite testdata/metrics-*.txt from what the server exports")

// TestMetricsSeriesInventory pins the names and types of every /metrics
// series btrace-serve exports after fixed traffic, on a single store and
// on -shards 4 -replication 2, to testdata/metrics-{single,cluster}.txt:
// a refactor cannot drop or rename a series, which dashboards and the
// benchmark read by name, without failing here. The server is this test
// binary run as btrace-serve in a process of its own, so the inventory
// is the server's alone, not whatever the package's other tests left in
// the process-wide registry. Run with -update to rewrite the files after
// a deliberate change.
func TestMetricsSeriesInventory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"single", nil},
		{"cluster", []string{"-shards", "4", "-replication", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := serveInventory(t, tc.flags)
			path := filepath.Join("testdata", "metrics-"+tc.name+".txt")
			if *updateInventory {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSpace(string(raw)), "\n")
			for _, s := range want {
				if !slices.Contains(got, s) {
					t.Errorf("series %q is gone", s)
				}
			}
			for _, s := range got {
				if !slices.Contains(want, s) {
					t.Errorf("series %q is new: add it to %s (go test -run TestMetricsSeriesInventory -update)", s, path)
				}
			}
		})
	}
}

// serveInventory starts btrace-serve with the benchmark's fixed flags
// plus flags, sends it fixed traffic, and returns its /metrics
// inventory: one "name type" line per series, sorted.
func serveInventory(t *testing.T, flags []string) []string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	args := append([]string{"-addr", addr, "-store", t.TempDir(),
		"-sample-rate", "1", "-shed=false", "-commit-every", "50ms"}, flags...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), serveMainEnv+"=1")
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Errorf("btrace-serve did not stop on SIGINT; log:\n%s", log.String())
		}
	}()
	base := "http://" + addr
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
		}
		return body
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("btrace-serve not ready after 20s; log:\n%s", log.String())
		}
	}

	// Two tenants' batches, one with an entry the verifier quarantines.
	for _, tenant := range []string{"alpha", ""} {
		es := append(clusterEvents(64, 1), tracer.Entry{TID: 3, Level: 1})
		req, err := http.NewRequest("POST", base+"/ingest", bytes.NewReader(encodeEvents(t, es)))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(tenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /ingest as %q: status %d", tenant, resp.StatusCode)
		}
	}
	// A single store admits on its drain: wait until both batches have.
	for deadline := time.Now().Add(20 * time.Second); !bytes.Contains(get("/metrics"), []byte("\nbtrace_overload_seen_total 128\n")); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the gate never saw both batches; log:\n%s", log.String())
		}
	}
	get("/store/query?limit=10")
	get("/store/query?format=csv")
	get("/store/query?q=" + url.QueryEscape("category == 1 | count()"))

	var inv []string
	sc := bufio.NewScanner(bytes.NewReader(get("/metrics")))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			inv = append(inv, fmt.Sprintf("%s %s", f[2], f[3]))
		}
	}
	slices.Sort(inv)
	return inv
}
