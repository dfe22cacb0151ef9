package ckpt

import (
	"errors"
	"fmt"
	"sync"
)

// ErrFailpoint is returned by an operation whose armed failpoint fired. It
// models a process crash at an exact point in the durability protocol: the
// bytes written before the failpoint are on disk (or in the OS cache,
// matching a real kill), everything after never happens. Recovery code
// treats it like any other fatal error; tests arm one site per run and
// assert the restarted process reconstructs a consistent state.
var ErrFailpoint = errors.New("ckpt: armed failpoint fired")

// Failpoint is an armable crash hook. Sites are free-form strings; the WAL
// checks "wal:<record-type>" after appending each record, and
// testutil.FlakyConn checks "conn:send"/"conn:recv" around transport I/O.
// A nil *Failpoint is inert, so production paths pass it through unchecked.
type Failpoint struct {
	mu    sync.Mutex
	site  string
	fired bool
}

// Arm sets the site the failpoint fires at. Arming replaces any previous
// site and clears the fired latch, so one Failpoint can drive a sweep.
//
//photon:nolint unused-export -- test seam: the crash-point sweeps (TestCrashPointSweep, TestWALFailpoint) arm the site to crash at
func (f *Failpoint) Arm(site string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.site, f.fired = site, false
	f.mu.Unlock()
}

// Fire reports whether the failpoint is armed at site. The first match
// disarms it (one crash per arming) and sets the fired latch.
func (f *Failpoint) Fire(site string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.site == "" || f.site != site {
		return false
	}
	f.site, f.fired = "", true
	return true
}

// Fired reports whether the failpoint has fired since it was last armed —
// how a sweep distinguishes "crashed where I asked" from "the run never
// reached that site".
//
//photon:nolint unused-export -- test seam: the crash-point sweeps (TestCrashPointSweep) check the armed site was reached
func (f *Failpoint) Fired() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// failErr wraps ErrFailpoint with the site for log lines and test output.
func failErr(site string) error {
	return fmt.Errorf("%w at %s", ErrFailpoint, site)
}
