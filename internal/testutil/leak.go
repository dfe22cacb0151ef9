// Package testutil holds shared test-only helpers. Its flagship is the
// goroutine-leak checker applied to the networked end-to-end tests: servers,
// relays, and clients all spawn connection goroutines, and a test that
// passes while stranding one turns every later test in the package into a
// suspect when the strand finally misbehaves.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// TB is the subset of *testing.T the leak checker needs; taking the
// interface keeps this package importable from helpers that only have a
// testing.TB.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// VerifyNoLeaks snapshots the live goroutines and registers a cleanup that
// fails the test if goroutines running photon code outlive it. Call it
// FIRST in a test, before any helper that spawns servers or clients, so the
// snapshot is taken ahead of the machinery under test.
//
// Teardown is asynchronous everywhere (closed connections unwind reader
// loops, cancelled contexts unwind accept loops), so the cleanup polls with
// a grace period instead of checking once: a goroutine is only a leak if it
// is still alive after retries.
//
// System goroutines are allowlisted: the runtime's own workers, testing
// harness goroutines, and the package-global tensor worker pool, which is
// created on first parallel dispatch and intentionally lives for the
// process (see tensor.ensurePool).
func VerifyNoLeaks(t TB) {
	t.Helper()
	before := goroutineIDs()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leakedGoroutines(before)
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		for _, stack := range leaked {
			t.Errorf("leaked goroutine:\n%s", stack)
		}
	})
}

// goroutineIDs returns the IDs of all currently live goroutines.
func goroutineIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, g := range goroutineStacks() {
		ids[goroutineID(g)] = true
	}
	return ids
}

// leakedGoroutines returns the stacks of goroutines that are not in the
// before set, are running photon code, and are not allowlisted.
func leakedGoroutines(before map[string]bool) []string {
	var leaked []string
	for _, g := range goroutineStacks() {
		if before[goroutineID(g)] {
			continue
		}
		if allowlisted(g) {
			continue
		}
		if strings.Contains(g, "photon/internal/") {
			leaked = append(leaked, g)
		}
	}
	return leaked
}

// goroutineStacks captures all goroutine stacks and splits them into
// per-goroutine chunks.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var stacks []string
	for _, chunk := range strings.Split(string(buf), "\n\n") {
		if strings.HasPrefix(chunk, "goroutine ") {
			stacks = append(stacks, chunk)
		}
	}
	return stacks
}

// goroutineID extracts the numeric ID from a stack chunk's header line
// ("goroutine 42 [running]: ...").
func goroutineID(stack string) string {
	rest := strings.TrimPrefix(stack, "goroutine ")
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return fmt.Sprintf("unparsed:%.40s", stack)
}

// allowlisted reports whether a goroutine is infrastructure that may
// legitimately outlive a test.
func allowlisted(stack string) bool {
	for _, marker := range []string{
		// The package-global tensor worker pool: created on first parallel
		// dispatch, lives for the process by design. Matched on the closure
		// name alone: when ensurePool is inlined the frame reads
		// tensor.dispatch.ensurePool.func1.1, not tensor.ensurePool.func1.1.
		".ensurePool.func",
		// Testing harness machinery.
		"testing.tRunner",
		"testing.(*T).Run",
		"testing.runTests",
		// Runtime and profiling system goroutines.
		"runtime.goexit0",
		"runtime/pprof.",
		"runtime.gc",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"runtime.forcegchelper",
		"runtime.runfinq",
		"os/signal.signal_recv",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
