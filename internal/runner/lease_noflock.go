//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package runner

import (
	"errors"
	"os"
)

// tryLock reports errors.ErrUnsupported on platforms without flock:
// every leased job then runs locally.
func tryLock(*os.File) (bool, error) {
	return false, errors.ErrUnsupported
}
