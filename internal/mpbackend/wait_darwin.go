package mpbackend

import "syscall"

// selectFds is select(2), whose wrapper's results differ by OS.
func selectFds(nfd int, rd, wr *syscall.FdSet) error {
	return syscall.Select(nfd, rd, wr, nil, nil)
}
