package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startTimeout bounds a daemon start (cold or recovering) to its listening
// line, and a SIGTERMed daemon's drain to its exit.
const startTimeout = 2 * time.Minute

// child is one incarnation of the daemon, with what it printed at start-up.
type child struct {
	cmd     *exec.Cmd
	scanned chan struct{} // closed once stdout hit EOF

	base   string // http://host:port
	engine string // -engine as the daemon reports it
	kappa  int
	// The "recovered:" line, and the spacing of checkpoint opportunities
	// from the "data dir:" line.
	source   string
	events   uint64
	replayed int
	tornTail bool
	spacing  int
}

var (
	bannerRE    = regexp.MustCompile(`^xheal-serve: engine=(\S+) .* kappa=(\d+) `)
	dataDirRE   = regexp.MustCompile(`\(checkpoint opportunity every (\d+) ticks, archive=true\)$`)
	listeningRE = regexp.MustCompile(`^listening on (http://\S+)`)
)

// startChild launches the daemon and waits for its listening line. The
// daemon prints banner, "recovered:", "data dir:" and "listening on" in that
// order, the middle two only when durable.
func startChild(bin string, args []string, stderr io.Writer) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), scanned: make(chan struct{})}
	c.cmd.Stderr = stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	started := make(chan error, 1)
	go func() {
		defer close(c.scanned)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if done, err := c.startupLine(sc.Text()); done || err != nil {
				started <- err
				break
			}
		}
		for sc.Scan() { // keep the pipe drained until the daemon exits
		}
	}()
	select {
	case err = <-started:
	case <-c.scanned:
		err = errors.New("daemon exited before listening")
	case <-time.After(startTimeout):
		err = fmt.Errorf("daemon not listening after %v", startTimeout)
	}
	if err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// startupLine folds one stdout line into c; done reports the listening line.
func (c *child) startupLine(line string) (done bool, err error) {
	switch {
	case strings.HasPrefix(line, "xheal-serve: "):
		m := bannerRE.FindStringSubmatch(line)
		if m == nil {
			return false, fmt.Errorf("parse %q: no engine= and kappa=", line)
		}
		c.engine = m[1]
		c.kappa, _ = strconv.Atoi(m[2])
	case strings.HasPrefix(line, "recovered: "):
		if _, err := fmt.Sscanf(line, "recovered: source=%s events=%d tick=%d replayed=%d torn_tail=%t",
			&c.source, &c.events, new(uint64), &c.replayed, &c.tornTail); err != nil {
			return false, fmt.Errorf("parse %q: %w", line, err)
		}
	case strings.HasPrefix(line, "data dir: "):
		m := dataDirRE.FindStringSubmatch(line)
		if m == nil {
			return false, fmt.Errorf("daemon is not archiving its log: %q", line)
		}
		c.spacing, _ = strconv.Atoi(m[1])
	default:
		m := listeningRE.FindStringSubmatch(line)
		if m == nil {
			return false, nil
		}
		if c.engine == "" || c.source == "" || c.spacing == 0 {
			return false, fmt.Errorf("daemon is listening without having printed its banner, \"recovered:\" and \"data dir:\" lines; check the flags after --")
		}
		c.base = m[1]
		return true, nil
	}
	return false, nil
}

// kill SIGKILLs the daemon and waits until it and its output reader ended.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only when the process is already gone
	<-c.scanned
	_ = c.cmd.Wait() // "signal: killed" is the expected outcome
}

// terminate SIGTERMs the daemon and waits for a clean exit: the daemon exits
// non-zero when its final drain could not reach the log.
func (c *child) terminate() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	select {
	case <-c.scanned:
	case <-time.After(startTimeout):
		c.kill()
		return fmt.Errorf("daemon still running %v after SIGTERM", startTimeout)
	}
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	return nil
}
