package chaos

import (
	"fmt"
	"sort"
	"time"
)

// Profile describes one fault regime: which perturbations the wrapped
// link injects and how hard. All probabilities are per message, drawn from
// the rank's seeded PRNG in program order, so a (profile, seed, program)
// triple replays the same fault decisions on every run — only the host's
// thread interleaving varies.
type Profile struct {
	// Name identifies the profile in reports and reproducer commands.
	Name string

	// DelayProb is the fraction of messages given an in-flight latency,
	// sampled uniformly from [0, MaxDelay]. The receiver holds the message
	// until its delivery time, so a delayed message can be overtaken by
	// later traffic on other links.
	DelayProb float64
	// MaxDelay bounds the sampled in-flight latency.
	MaxDelay time.Duration

	// ReorderProb is the fraction of messages held back at the sender
	// until the rank's next link operation, which overtakes them on the
	// wire if it is a send to the same destination — bounded reorder, one
	// message deep. A receive releases the held message first.
	ReorderProb float64

	// DupProb is the fraction of messages delivered twice (same
	// sequence number; the receiver deduplicates).
	DupProb float64

	// DropProb is the fraction of messages lost on their first
	// transmission (one-shot drops): the wire carries a doomed copy, which
	// the receiver discards, then the good copy — the retransmission —
	// RetryAfter later. Retransmissions are never dropped.
	DropProb float64
	// RetryAfter is how much later the retransmission of a dropped
	// message arrives. Zero means 200µs.
	RetryAfter time.Duration

	// SlowEvery, when positive, slows every SlowEvery-th rank (rank %
	// SlowEvery == 0) by SlowBy per link operation — the straggler
	// injection.
	SlowEvery int
	// SlowBy is the per-operation slowdown of the slowed ranks.
	SlowBy time.Duration
}

func (p Profile) retryAfter() time.Duration {
	if p.RetryAfter <= 0 {
		return 200 * time.Microsecond
	}
	return p.RetryAfter
}

// Builtin profiles. The delays sit in the tens-of-microseconds range:
// large against the host's channel latency (so schedules genuinely
// shuffle) but small enough that a full conformance sweep stays in CI
// budget.
var builtin = []Profile{
	{
		Name:      "delay",
		DelayProb: 0.5, MaxDelay: 100 * time.Microsecond,
		SlowEvery: 3, SlowBy: 20 * time.Microsecond,
	},
	{
		Name:        "reorder",
		ReorderProb: 0.3,
		DelayProb:   0.25, MaxDelay: 50 * time.Microsecond,
	},
	{
		Name:     "loss",
		DropProb: 0.25, DupProb: 0.2,
		RetryAfter: 150 * time.Microsecond,
	},
	{
		Name:      "storm",
		DelayProb: 0.3, MaxDelay: 60 * time.Microsecond,
		ReorderProb: 0.2,
		DropProb:    0.15, DupProb: 0.15,
		RetryAfter: 150 * time.Microsecond,
		SlowEvery:  4, SlowBy: 15 * time.Microsecond,
	},
}

// Profiles returns the built-in fault profiles: "delay" (latency plus a
// straggler rank), "reorder" (bounded message reorder plus latency),
// "loss" (one-shot drops with retransmission, plus duplicates) and
// "storm" (all of the above).
func Profiles() []Profile {
	out := make([]Profile, len(builtin))
	copy(out, builtin)
	return out
}

// ByName returns the named built-in profile.
func ByName(name string) (Profile, bool) {
	for _, p := range builtin {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names lists the built-in profile names, sorted.
func Names() []string {
	out := make([]string, len(builtin))
	for i, p := range builtin {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// MustByName is ByName panicking on unknown names (for test tables).
func MustByName(name string) Profile {
	p, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("chaos: no profile named %q (have %v)", name, Names()))
	}
	return p
}
