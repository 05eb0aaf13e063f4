//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package runner

import (
	"os"
	"syscall"
)

// tryLock takes an exclusive flock on f without blocking. It reports
// false with a nil error when another open file description holds it.
func tryLock(f *os.File) (bool, error) {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return false, nil
	}
	return err == nil, err
}
