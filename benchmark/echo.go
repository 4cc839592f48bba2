package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The served workload is scaled to reference speed with a kernel of
// its own (see calib.go for why anything is): what a request over
// loopback costs in this sandbox is mostly waking threads of two
// processes on two shared processors, and that is slower by up to a
// factor of two for minutes at a time, far more than the memory kernel
// of calib.go moves in the same spell. So beside the daemon the harness
// runs an echo process — this same binary, which reads 8-byte messages
// from its connections and writes them back — and before and after
// every served phase it sends the echo a short open loop at the
// workload's own rate over as many connections. The median round trip,
// over echoRefNS, is the phase's slowdown. The echo knows nothing of
// the store, the wire protocol or the server, so a change to the
// program cannot move it.

const (
	// echoEnv makes the binary an echo process.
	echoEnv = "CCAM_BENCH_ECHO"
	// echoProbe is the number of messages of one probe: 0.15 s at the
	// mid rate.
	echoProbe = 700
	// echoRefNS is the echo's median round trip at reference speed.
	echoRefNS = 60000.0
)

// runEcho is the echo process: it announces its port, echoes until its
// standard input closes (the harness exited or asked it to stop).
func runEcho() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("echo: listening on %s\n", ln.Addr())
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer c.Close()
			var b [8]byte
			for {
				if _, err := io.ReadFull(c, b[:]); err != nil {
					return
				}
				if _, err := c.Write(b[:]); err != nil {
					return
				}
			}
		}()
	}
}

// echoRig is a running echo process and the connections to it.
type echoRig struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	conns []net.Conn
}

func startEcho(n int) (*echoRig, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), echoEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e := &echoRig{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "echo: listening on ")
	if err != nil || !ok {
		e.stop()
		return nil, fmt.Errorf("echo process did not announce its port (%q, %v)", line, err)
	}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			e.stop()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// stop ends the echo process and waits for it.
func (e *echoRig) stop() {
	for _, c := range e.conns {
		c.Close()
	}
	e.stdin.Close()
	done := make(chan struct{})
	go func() {
		e.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		e.cmd.Process.Kill()
		<-done
	}
}

// probe sends echoProbe messages, one every 1/rate seconds, to the
// connections in turn and returns the median round trip in ns, each
// timed from when it was due — the way openPhase times a request.
func (e *echoRig) probe(rate int) (float64, error) {
	interval := time.Second / time.Duration(rate)
	pace := startPacer()
	defer pace.stop()
	start := time.Now().Add(time.Millisecond)
	var mu sync.Mutex
	var h hist
	var wg sync.WaitGroup
	errs := make([]error, len(e.conns))
	for ci, c := range e.conns {
		n := echoProbe / len(e.conns)
		if ci < echoProbe%len(e.conns) {
			n++
		}
		wg.Add(1)
		go func(ci int, c net.Conn, n int) {
			defer wg.Done()
			c.SetReadDeadline(start.Add(time.Duration(echoProbe)*interval + 10*time.Second))
			var b [8]byte
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(c, b[:]); err != nil {
					errs[ci] = err
					return
				}
				now := time.Now()
				due := start.Add(time.Duration(binary.LittleEndian.Uint64(b[:])) * interval)
				mu.Lock()
				h.add(now.Sub(due).Nanoseconds())
				mu.Unlock()
			}
		}(ci, c, n)
	}
	var b [8]byte
	var sendErr error
	for i := 0; i < echoProbe && sendErr == nil; i++ {
		pace.until(start.Add(time.Duration(i) * interval))
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		_, sendErr = e.conns[i%len(e.conns)].Write(b[:])
	}
	wg.Wait()
	if err := errors.Join(append(errs, sendErr)...); err != nil {
		return 0, fmt.Errorf("echo probe: %w", err)
	}
	return h.quantile(0.50), nil
}
