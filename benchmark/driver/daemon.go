// Package driver is the subprocess half of the benchmark: it boots the
// real rotary-serve binary, drives it over the wire protocol through the
// four workloads, and checks what comes back. It knows the daemon only
// by its flags, its wire ops and serve.Client, so a refactor behind the
// socket cannot break it. The traced in-process twin (package probes)
// reuses the same workload code through the Daemon interface.
package driver

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Boot is how one daemon instance is configured: the flags every
// workload passes on top of rotary-serve's defaults.
type Boot struct {
	// Socket is the public Unix socket, relative to the working directory
	// so the path stays under the 108-byte sockaddr limit in any checkout.
	Socket string
	// JournalDir is the -journal directory; restarting on it recovers.
	JournalDir string
	// Pace is -pace: virtual seconds per wall second (0 freezes the clock).
	Pace float64
	// Shards is -shards (1 = single server, no router).
	Shards int
}

// Args renders the rotary-serve command line: defaults plus an unbounded,
// slack-free admission gate, so no generated submit is ever refused.
func (b Boot) Args() []string {
	args := []string{
		"-socket", b.Socket,
		"-journal", b.JournalDir,
		"-policy", "rotary",
		"-queue-bound", "0",
		"-slack-factor", "0",
		"-pace", strconv.FormatFloat(b.Pace, 'g', -1, 64),
	}
	if b.Shards > 1 {
		args = append(args, "-shards", strconv.Itoa(b.Shards))
	}
	return args
}

// Daemon is one server incarnation a workload boots, kills and waits
// for: the rotary-serve subprocess, or the traced in-process twin.
type Daemon interface {
	// Start launches the daemon; readiness is observed over the socket.
	Start() error
	// Kill stops it the way SIGKILL does and waits until it is gone.
	Kill() error
	// Wait blocks until a drained daemon has exited.
	Wait() error
}

// Launcher builds a not-yet-started daemon for a boot configuration.
type Launcher func(Boot) Daemon

// Usage is what a subprocess cost the host, read from its rusage.
type Usage struct {
	CPUSecs   float64
	RSSPeakMB float64
}

// Proc is the real rotary-serve binary as a Daemon.
type Proc struct {
	bin  string
	boot Boot
	cmd  *exec.Cmd
	log  *os.File
	// done records that the process has been reaped, so Kill after Wait
	// (the cleanup path) is harmless.
	done bool
}

// NewProc prepares rotary-serve at bin for the boot configuration. Its
// output goes to <journal dir>.log, which a failed run leaves behind.
func NewProc(bin string, b Boot) *Proc { return &Proc{bin: bin, boot: b} }

// Start implements Daemon.
func (p *Proc) Start() error {
	log, err := os.OpenFile(filepath.Clean(p.boot.JournalDir)+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	p.log = log
	p.cmd = exec.Command(p.bin, p.boot.Args()...)
	p.cmd.Stdout = log
	p.cmd.Stderr = log
	p.done = false
	if err := p.cmd.Start(); err != nil {
		log.Close()
		return fmt.Errorf("start %s: %w", p.bin, err)
	}
	return nil
}

// Kill implements Daemon with a real SIGKILL.
func (p *Proc) Kill() error {
	if p.cmd == nil || p.done {
		return nil
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = p.cmd.Wait() // the kill is the expected cause of the error
	p.finished()
	return nil
}

// Wait implements Daemon: a drained server exits 0 on its own; one that
// does not within the grace period is killed and reported.
func (p *Proc) Wait() error {
	if p.cmd == nil || p.done {
		return nil
	}
	exited := make(chan error, 1)
	go func() { exited <- p.cmd.Wait() }()
	select {
	case err := <-exited:
		p.finished()
		if err != nil {
			return fmt.Errorf("rotary-serve exited: %w (see %s)", err, p.log.Name())
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
		p.finished()
		return fmt.Errorf("rotary-serve did not exit after drain (see %s)", p.log.Name())
	}
}

func (p *Proc) finished() {
	p.done = true
	p.log.Close()
}

// Usage reports the reaped process's CPU time and peak resident set.
func (p *Proc) Usage() Usage {
	if p.cmd == nil || p.cmd.ProcessState == nil {
		return Usage{}
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return Usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return Usage{
		CPUSecs:   tv(ru.Utime) + tv(ru.Stime),
		RSSPeakMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}
