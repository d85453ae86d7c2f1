package mpbackend

import (
	"syscall"
	"unsafe"
)

// fdSet is a set of descriptors for select(2).
type fdSet struct {
	bits syscall.FdSet
	n    int // one more than the highest descriptor in it
}

// fdSetSize bounds the descriptors an fdSet can hold; fdWord is the width
// of the words it keeps them in, which differs by OS.
const (
	fdSetSize = 8 * int(unsafe.Sizeof(syscall.FdSet{}))
	fdWord    = 8 * int(unsafe.Sizeof(syscall.FdSet{}.Bits[0]))
)

func (s *fdSet) add(fd int) {
	s.bits.Bits[fd/fdWord] |= 1 << (fd % fdWord)
	s.n = max(s.n, fd+1)
}

func (s *fdSet) has(fd int) bool { return s.bits.Bits[fd/fdWord]&(1<<(fd%fdWord)) != 0 }

// await blocks until a descriptor in rd can be read or one in wr written,
// and leaves in the sets those that can.
func await(rd, wr *fdSet) error {
	err := selectFds(max(rd.n, wr.n), &rd.bits, &wr.bits)
	if err == syscall.EINTR {
		*rd, *wr, err = fdSet{}, fdSet{}, nil
	}
	return err
}
