package main

import (
	"runtime"
	"syscall"
	"time"
)

// pacer waits for the due times of an open loop. time.Sleep cannot do
// it: a Go program with open sockets parks its idle threads in
// epoll_wait, whose timeout counts whole milliseconds, so Sleep(50µs)
// returns after 1.1 ms here and a 6,000 req/s schedule turns into
// bursts that are half a millisecond late on average. The pacer sleeps
// in nanosleep(2) on an OS thread of its own with the thread's timer
// slack set to 1 ns (oversleep p50 about 20 µs, p99 about 120 µs in
// this sandbox) and stops paceSpin short of the due time, then spins.
type pacer struct{}

// paceSpin is the tail of every wait that is spun, not slept: about the
// p95 of nanosleep's oversleep, so the generator is on time to within a
// microsecond for most requests while it burns under a third of one CPU
// at the mid rate.
const paceSpin = 60 * time.Microsecond

// prSetTimerSlack is PR_SET_TIMERSLACK of prctl(2).
const prSetTimerSlack = 29

// startPacer binds the calling goroutine to its OS thread; stop undoes
// that. Only that goroutine may call until.
func startPacer() pacer {
	runtime.LockOSThread()
	// Best effort: with the default slack (50 µs) the sleeps end later
	// and loadgen.late_* reports it.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return pacer{}
}

func (pacer) stop() { runtime.UnlockOSThread() }

// until returns at due, or at once if due has passed.
func (pacer) until(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > paceSpin {
			ts := syscall.NsecToTimespec(int64(d - paceSpin))
			// An interrupted sleep (EINTR) is retried by the loop.
			_ = syscall.Nanosleep(&ts, nil)
		}
	}
}
