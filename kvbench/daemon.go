package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lsasg"
	"lsasg/internal/wire"
)

// daemon is one dsgserve process on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan bool // receives whether stderr reported a clean drain
}

// daemonSeed is dsgserve's default -seed, which the benchmark keeps: the
// workload seed draws the op stream and reaches the daemon only through it.
const daemonSeed = 1

// startDaemon launches dsgserve with tracing off and its defaults
// otherwise (-seed 1, -batch 1, -window 1), and waits until it reports its
// listening address.
func startDaemon(bin string, s spec) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-metrics", "", "-trace=false", "-n", strconv.Itoa(keys)}
	if s.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(s.shards))
	}
	cmd := exec.Command(bin, args...)
	// If the benchmark dies without stopping it, the kernel kills the
	// daemon rather than leaving it behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan bool, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		clean := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.Contains(line, "serving") {
				addrc <- line[i+4:]
			}
			if strings.Contains(line, "drained cleanly") {
				clean = true
			}
		}
		io.Copy(io.Discard, stderr)
		close(addrc)
		d.drained <- clean
	}()
	select {
	case a, ok := <-addrc:
		if ok {
			d.addr = a
			return d, nil
		}
	case <-time.After(30 * time.Second):
	}
	d.kill()
	return nil, fmt.Errorf("dsgserve did not report a listening address")
}

// peakRSSMiB reads the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGTERM and waits for it. The daemon verifies
// its topology after the drain; a clean exit is part of the run's check.
// Its stderr is read to the end before Wait, which closes the pipe.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case clean := <-d.drained:
		if err := d.cmd.Wait(); err != nil {
			return fmt.Errorf("dsgserve exit: %w", err)
		}
		if !clean {
			return fmt.Errorf("dsgserve did not report a clean drain")
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("dsgserve did not exit within 30s of SIGTERM")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// session is one daemon plus the one connection a closed-loop client
// drives it through, and the oracle that checks every answer.
type session struct {
	d      *daemon
	c      *wire.Client
	o      oracle
	counts kvCounts // the daemon's KV counters, summed over generations
	failed int64
	errs   []string
	// dummies and heights are the topology samples taken by stats.
	dummies, heights []float64
}

func dial(bin string, s spec) (*session, error) {
	d, err := startDaemon(bin, s)
	if err != nil {
		return nil, err
	}
	// One pooled connection, no client retries: a single synchronous
	// client never meets a generation restart, so any retryable answer is
	// a fault to count.
	c, err := wire.DialClient(d.addr, wire.WithPoolSize(1), wire.WithMaxAttempts(1))
	if err != nil {
		d.kill()
		return nil, err
	}
	return &session{d: d, c: c}, nil
}

func (ss *session) fail(format string, args ...any) {
	ss.failed++
	if len(ss.errs) < 5 {
		ss.errs = append(ss.errs, fmt.Sprintf(format, args...))
	}
}

// do sends one op, waits for its answer and checks it against the oracle.
// It returns the round-trip time.
func (ss *session) do(op lsasg.Op) time.Duration {
	req, _ := wire.RequestFor(op)
	t0 := time.Now()
	resp, err := ss.c.Do(req)
	rtt := time.Since(t0)
	if err != nil {
		ss.fail("%v %d→%d: %v", op.Kind, op.Src, op.Dst, err)
		return rtt
	}
	if err := ss.o.check(op, resp); err != nil {
		ss.fail("%v", err)
	}
	return rtt
}

// stats reads the daemon's Stats. Like every admin verb it ends the serving
// generation, so the Serve half covers the ops since the previous call;
// the session sums those KV counters for the oracle comparison and keeps
// the topology size as one sample.
func (ss *session) stats() (lsasg.Stats, error) {
	st, err := ss.c.Stats()
	if err != nil {
		return lsasg.Stats{}, fmt.Errorf("stats: %w", err)
	}
	c := countsOf(st.Serve)
	ss.counts.Gets += c.Gets
	ss.counts.GetHits += c.GetHits
	ss.counts.Puts += c.Puts
	ss.counts.PutInserts += c.PutInserts
	ss.counts.Deletes += c.Deletes
	ss.counts.DeleteHits += c.DeleteHits
	ss.counts.Scans += c.Scans
	ss.counts.ScannedEntries += c.ScannedEntries
	ss.dummies = append(ss.dummies, float64(st.Cum.DummyCount))
	ss.heights = append(ss.heights, float64(st.Cum.Height))
	return st.Cum, nil
}

// finish takes the last Stats sample, compares the daemon's KV counters
// with the oracle's, runs Verify, reads the peak RSS and drains the daemon.
// Each mismatch counts as one failed op.
func (ss *session) finish() (cum lsasg.Stats, rss float64, err error) {
	defer ss.c.Close()
	if cum, err = ss.stats(); err != nil {
		ss.d.kill()
		return cum, 0, err
	}
	if ss.counts != ss.o.want {
		ss.fail("daemon KV counters %+v, oracle %+v", ss.counts, ss.o.want)
	}
	if err := ss.c.Verify(); err != nil {
		ss.fail("verify: %v", err)
	}
	if rss, err = ss.d.peakRSSMiB(); err != nil {
		ss.d.kill()
		return cum, 0, err
	}
	if err := ss.d.stop(); err != nil {
		ss.fail("%v", err)
	}
	return cum, rss, nil
}
