package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childServer is one sjserver process started with deployment flags
// only: an ephemeral listen port, a durable data directory, an
// ephemeral /metrics port and no request logging.
type childServer struct {
	cmd         *exec.Cmd
	args        []string
	addr        string
	metricsAddr string
	dataDir     string
	stdoutDone  chan struct{}
}

func startServer(bin, dataDir string) (*childServer, error) {
	args := []string{bin, "-listen", "127.0.0.1:0", "-data", dataDir, "-metrics", "127.0.0.1:0", "-quiet"}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sjserver: %w", err)
	}
	s := &childServer{cmd: cmd, args: args, dataDir: dataDir, stdoutDone: make(chan struct{})}

	// The server announces both bound addresses on stdout; keep
	// draining it afterwards so the child never blocks on a full pipe.
	ready := make(chan error, 1)
	go func() {
		defer close(s.stdoutDone)
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "sjserver listening on "); ok {
				s.addr = strings.TrimSpace(a)
			}
			if a, ok := strings.CutPrefix(line, "metrics on http://"); ok {
				s.metricsAddr, _, _ = strings.Cut(a, "/")
			}
			if !announced && s.addr != "" && s.metricsAddr != "" {
				announced = true
				ready <- nil
			}
		}
		if !announced {
			ready <- errors.New("sjserver exited before announcing its addresses")
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.stop()
			return nil, err
		}
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("sjserver did not announce its addresses within 30s")
	}
	return s, nil
}

// stop shuts the server down gracefully, killing it if draining takes
// longer than ten seconds, and waits until the process has exited.
func (s *childServer) stop() {
	if s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-s.stdoutDone
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
}

// peakRSS returns the child's VmHWM in bytes.
func (s *childServer) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metricsSnap is one scrape of /metrics: every series (name plus label
// set, exactly as rendered) mapped to its value.
type metricsSnap map[string]float64

func (s *childServer) scrape() (metricsSnap, error) {
	resp, err := http.Get("http://" + s.metricsAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	snap := metricsSnap{}
	sc := bufio.NewScanner(resp.Body)
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
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// settle scrapes /metrics until the store's write counters hold still
// for 100 ms, and returns that scrape. The server acknowledges a join
// before it appends the join's leakage checkpoint to the manifest, so a
// scrape or a directory size taken right after the last ack can miss it.
func (s *childServer) settle() (metricsSnap, error) {
	prev, err := s.scrape()
	if err != nil {
		return nil, err
	}
	for range 50 {
		time.Sleep(100 * time.Millisecond)
		cur, err := s.scrape()
		if err != nil {
			return nil, err
		}
		if cur[mWALBytes] == prev[mWALBytes] && cur[mSnapshotBytes] == prev[mSnapshotBytes] {
			return cur, nil
		}
		prev = cur
	}
	return nil, errors.New("store write counters still moving after 5s")
}

// delta returns after[series] - before[series]; a series missing from
// a scrape counts as zero.
func delta(before, after metricsSnap, series string) float64 {
	return after[series] - before[series]
}

// Series the benchmark reads from the server's /metrics.
const (
	mRowsDecrypted = "sj_rows_decrypted_total"
	mDecSum        = "sj_dec_seconds_sum"
	mJoinSum       = "sj_join_seconds_sum"
	mJoinReqSum    = `sj_server_request_seconds_sum{type="join"}`
	mUploadReqSum  = `sj_server_request_seconds_sum{type="upload"}`
	mShed          = "sj_server_shed_total"
	mSnapshotBytes = "sj_store_snapshot_bytes_total"
	mWALBytes      = "sj_store_wal_bytes_total"
)

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
