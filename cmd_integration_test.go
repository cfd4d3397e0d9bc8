package skymr

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestBinariesEndToEnd builds the actual skymaster/skyworker binaries and
// runs a distributed skyline computation over real TCP between separate
// OS processes — the closest thing to the paper's cluster deployment that
// fits in a test.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration test skipped in -short mode")
	}
	dir := t.TempDir()

	build := func(name string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return bin
	}
	masterBin := build("skymaster")
	workerBin := build("skyworker")

	// Input data: 2,000 QWS-like services, with the sequential skyline as
	// the oracle.
	data := GenerateQWS(2025, 2000, 4)
	want := Skyline(data)
	input := filepath.Join(dir, "services.csv")
	f, err := os.Create(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(f, data, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()

	addr := freeAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var masterOut bytes.Buffer
	master := exec.CommandContext(ctx, masterBin,
		"-addr", addr, "-method", "angle", "-partitions", "8",
		"-reducers", "2", "-min-workers", "2", input)
	master.Stdout = &masterOut
	master.Stderr = os.Stderr
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for the master to listen before starting workers.
	waitForListen(t, addr, 20*time.Second)

	workers := make([]*exec.Cmd, 2)
	for i := range workers {
		w := exec.CommandContext(ctx, workerBin, "-master", addr, "-id", fmt.Sprintf("itw-%d", i))
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
			_ = w.Wait()
		}
	}()

	if err := master.Wait(); err != nil {
		t.Fatalf("skymaster exited with error: %v", err)
	}
	got, _, err := ReadCSV(strings.NewReader(masterOut.String()), false)
	if err != nil {
		t.Fatalf("parsing master output: %v\noutput:\n%s", err, masterOut.String())
	}
	if !sameMultiset(got, want) {
		t.Errorf("distributed binaries produced %d skyline points, oracle %d", len(got), len(want))
	}
}

// TestFlagSurface pins the number of flags each binary declares — the
// command-line half of the surface TestOptionSurface pins. The rule for
// adding one is the same: two deployments that exist need different
// values and the program cannot derive the value (as skymaster derives
// its sampling and scrape cadence from -stall-window).
func TestFlagSurface(t *testing.T) {
	want := map[string]int{
		"qwsgen": 5, "skybench": 5, "skyline": 11, "skyload": 13,
		"skymaster": 16, "skyserve": 9, "skytop": 3, "skyworker": 4,
	}
	decl := regexp.MustCompile(`\bflag\.(String|Int|Int64|Bool|Duration|Float64)(Var)?\(`)
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) != len(want) {
		t.Fatalf("found %d cmd/*/main.go (%v), want %d", len(mains), err, len(want))
	}
	total := 0
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(filepath.Dir(path))
		n := len(decl.FindAll(src, -1))
		if n != want[name] {
			t.Errorf("%s declares %d flags, want %d", name, n, want[name])
		}
		total += n
	}
	if total != 66 {
		t.Errorf("cmd/*/main.go declare %d flags in all, want 66", total)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitForListen(t *testing.T, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("master never listened on %s", addr)
}
