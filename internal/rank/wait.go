package rank

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrAborted is the panic value of a rank cancelled because the run is
// already lost. A run raises the failure that caused the cancellation,
// never the sentinel.
var ErrAborted = errors.New("rank: run aborted")

// Abort is a run's cancellation, shared by its ranks: the first failure
// closes Done and is the failure the run reports. A blocked rank either
// selects on Done (Await; the native link's full-mailbox put) or checks
// Reason before it blocks and is then woken through its mailbox by whoever
// failed the run (the native link's take) — either way the peers of a
// failed rank stop at once instead of after their timeout. The healthy
// path never touches it beyond that check.
type Abort struct {
	done   chan struct{}
	reason atomic.Pointer[string]
}

// NewAbort returns an untriggered cancellation.
func NewAbort() *Abort { return &Abort{done: make(chan struct{})} }

// Fail cancels the run with reason; later failures, and the cancelled
// ranks' own, are dropped.
func (a *Abort) Fail(reason string) {
	if a.reason.CompareAndSwap(nil, &reason) {
		close(a.done)
	}
}

// Done is closed by the first Fail.
func (a *Abort) Done() <-chan struct{} { return a.done }

// Reason is the first failure, "" while there is none.
func (a *Abort) Reason() string {
	if r := a.reason.Load(); r != nil {
		return *r
	}
	return ""
}

// Timer is a rank's reusable take timeout: a per-take time.After would
// allocate a timer, and leak it until expiry, on every blocking receive.
// The zero value is ready to use.
type Timer struct{ t *time.Timer }

// Await blocks for the next element of the mailbox ch. It reports false
// when timeout (> 0) expired first, and panics with ErrAborted when the run
// was cancelled first. With timeout 0 only the message and the
// cancellation end the wait.
func Await[T any](ch <-chan T, abort *Abort, tm *Timer, timeout time.Duration) (v T, ok bool) {
	// A nil timer channel blocks forever.
	var expired <-chan time.Time
	if timeout > 0 {
		if tm.t == nil {
			tm.t = time.NewTimer(timeout)
		} else {
			tm.t.Reset(timeout)
		}
		expired = tm.t.C
	}
	select {
	case v = <-ch:
		if expired != nil && !tm.t.Stop() {
			// The timer fired concurrently with the receive; drain it so
			// the next Reset starts from a clean channel.
			select {
			case <-tm.t.C:
			default:
			}
		}
		return v, true
	case <-expired:
		return v, false
	case <-abort.Done():
		panic(ErrAborted)
	}
}
