// Package testutil holds helpers shared by the repo's _test.go files.
// Nothing outside a test imports it.
package testutil

import (
	"runtime"
	"testing"
)

// ForEachProcs runs fn once at each of GOMAXPROCS 1, 2, 3, 4 and 7,
// whatever the host's CPU count, and restores the caller's setting. A
// check that compared NumCPU with 1 would compare 1 with 1 on a 1-CPU
// machine and pass without testing anything; 3 and 7 give uneven chunk
// splits.
func ForEachProcs(t testing.TB, fn func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 3, 4, 7} {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}
