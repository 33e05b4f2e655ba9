package mpisim

import (
	"container/heap"
	"fmt"
	"time"
)

// CostFunc computes the duration and transfer size of one system call,
// given the invoking rank and the virtual time at which the call starts.
// It is where the filesystem model plugs in; it may mutate shared model
// state (token queues, busy windows), which is safe because the engine
// executes exactly one action at a time, in global virtual-time order.
type CostFunc func(r *Rank, now time.Duration) (dur time.Duration, size int64)

// Action is one step of a rank's program.
type Action struct {
	// Call and Path describe the system call; empty Call marks a
	// barrier.
	Call string
	Path string
	// Cost computes duration and size for syscall actions.
	Cost CostFunc
	// Compute inserts pure user-space time (no event recorded) when
	// Call is empty and Compute > 0; with Call empty and Compute zero
	// the action is a barrier.
	Compute time.Duration
}

// Syscall builds a syscall action.
func Syscall(call, path string, cost CostFunc) Action {
	return Action{Call: call, Path: path, Cost: cost}
}

// Barrier builds a barrier action: the rank blocks until every rank of
// the world reaches the same barrier index.
func Barrier() Action { return Action{} }

// Compute builds a pure computation delay.
func Compute(d time.Duration) Action { return Action{Compute: d} }

// Program is a rank's static sequence of actions.
type Program []Action

// Engine interleaves the ranks' programs in virtual-time order: at each
// step the rank with the earliest clock executes its next action. This
// conservative discrete-event order makes shared-resource arbitration in
// the cost functions (token queues, metadata serialization) arrival-order
// correct and fully deterministic.
type Engine struct {
	world *World
}

// NewEngine builds an engine over a world.
func NewEngine(w *World) *Engine { return &Engine{world: w} }

// Run executes one program per rank. Programs may have different
// lengths, but every program must contain the same number of barrier
// actions; otherwise a rank would block forever and Run errors out.
func (e *Engine) Run(programs []Program) error {
	if len(programs) != len(e.world.Ranks) {
		return fmt.Errorf("mpisim: %d programs for %d ranks", len(programs), len(e.world.Ranks))
	}
	barriers := -1
	for i, p := range programs {
		n := 0
		for _, a := range p {
			if a.Call == "" && a.Compute == 0 {
				n++
			}
		}
		if barriers == -1 {
			barriers = n
		} else if n != barriers {
			return fmt.Errorf("mpisim: rank %d has %d barriers, rank 0 has %d", i, n, barriers)
		}
	}

	type state struct {
		rank *Rank
		prog Program
		pc   int
	}
	states := make([]*state, len(programs))
	ready := &rankQueue{}
	for i, r := range e.world.Ranks {
		states[i] = &state{rank: r, prog: programs[i]}
		heap.Push(ready, queued{at: r.Clock.Now(), idx: i})
	}

	waiting := make([]*state, 0, len(states))

	for ready.Len() > 0 {
		q := heap.Pop(ready).(queued)
		st := states[q.idx]
		if st.pc >= len(st.prog) {
			continue
		}
		a := st.prog[st.pc]
		st.pc++
		switch {
		case a.Call != "":
			dur, size := time.Duration(0), int64(-1)
			if a.Cost != nil {
				dur, size = a.Cost(st.rank, st.rank.Clock.Now())
			}
			st.rank.record(a.Call, a.Path, dur, size)
			heap.Push(ready, queued{at: st.rank.Clock.Now(), idx: q.idx})
		case a.Compute > 0:
			st.rank.Clock.Advance(a.Compute)
			heap.Push(ready, queued{at: st.rank.Clock.Now(), idx: q.idx})
		default:
			// Barrier: park the rank; release everyone when the
			// last one arrives.
			waiting = append(waiting, st)
			if len(waiting) == len(states) {
				var max time.Duration
				for _, ws := range waiting {
					if ws.rank.Clock.Now() > max {
						max = ws.rank.Clock.Now()
					}
				}
				for _, ws := range waiting {
					// Barrier release is not perfectly
					// simultaneous in practice; a little
					// per-rank exit skew keeps later
					// timing realistic.
					ws.rank.Clock.AdvanceTo(max)
					ws.rank.Clock.Advance(ws.rank.RNG.Between(0, 3*time.Microsecond))
					heap.Push(ready, queued{at: ws.rank.Clock.Now(), idx: ws.rank.ID})
				}
				waiting = waiting[:0]
			}
		}
	}
	if len(waiting) > 0 {
		return fmt.Errorf("mpisim: %d ranks stuck at a barrier", len(waiting))
	}
	for _, st := range states {
		if st.pc < len(st.prog) {
			return fmt.Errorf("mpisim: rank %d finished only %d of %d actions", st.rank.ID, st.pc, len(st.prog))
		}
	}
	return nil
}

// queued orders ranks by virtual time; ties break by rank id for
// determinism.
type queued struct {
	at  time.Duration
	idx int
}

type rankQueue []queued

func (q rankQueue) Len() int { return len(q) }
func (q rankQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].idx < q[j].idx
}
func (q rankQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *rankQueue) Push(x any)   { *q = append(*q, x.(queued)) }
func (q *rankQueue) Pop() any     { old := *q; n := len(old); v := old[n-1]; *q = old[:n-1]; return v }
