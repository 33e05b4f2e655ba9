package source

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"stinspector/internal/trace"
)

func shardCases(n int) []*trace.Case {
	out := make([]*trace.Case, n)
	for i := range out {
		out[i] = trace.NewCase(trace.CaseID{CID: "sf", Host: "h", RID: i}, []trace.Event{
			{Call: "read", FP: "/f", Start: 1, Dur: 1, Size: 1},
		})
	}
	return out
}

// faultySource yields shardCases(n) but fails (without a case) at the
// given positions — the per-case error shape of the Next contract.
type faultySource struct {
	cases []*trace.Case
	fail  map[int]bool
	next  int
}

func (s *faultySource) Next() (*trace.Case, error) {
	if s.next >= len(s.cases) {
		return nil, io.EOF
	}
	i := s.next
	s.next++
	if s.fail[i] {
		return nil, fmt.Errorf("case %d broken", i)
	}
	return s.cases[i], nil
}

func (s *faultySource) Close() error { return nil }

// TestShardedFoldRoundRobinPartition pins the deterministic partition:
// case i is folded by shard (i/shardBlock) mod shards, in delivery
// order within each shard.
func TestShardedFoldRoundRobinPartition(t *testing.T) {
	const n, shards = 5*shardBlock + 3, 3
	src := FromCases(shardCases(n)...)
	defer src.Close()
	var mu sync.Mutex
	got := make([][]int, shards)
	err := ShardedFold(src, shards, false, func(shard int, c *trace.Case) error {
		mu.Lock()
		got[shard] = append(got[shard], c.ID.RID)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, shards)
	for i := 0; i < n; i++ {
		s := (i / shardBlock) % shards
		want[s] = append(want[s], i)
	}
	for s := range want {
		if fmt.Sprint(got[s]) != fmt.Sprint(want[s]) {
			t.Errorf("shard %d folded %v, want %v", s, got[s], want[s])
		}
	}
}

// TestShardedFoldSequentialInline: shards == 1 must fold every case on
// shard 0 in delivery order (it is Walk, not a worker pool).
func TestShardedFoldSequentialInline(t *testing.T) {
	src := FromCases(shardCases(7)...)
	defer src.Close()
	var order []int
	err := ShardedFold(src, 1, false, func(shard int, c *trace.Case) error {
		if shard != 0 {
			t.Errorf("case %d on shard %d, want 0", c.ID.RID, shard)
		}
		order = append(order, c.ID.RID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != fmt.Sprint([]int{0, 1, 2, 3, 4, 5, 6}) {
		t.Errorf("order = %v", order)
	}
}

// TestShardedFoldJoinErrors: with joinErrors, failing cases are skipped
// and every failure comes back joined; the good cases all fold.
func TestShardedFoldJoinErrors(t *testing.T) {
	src := &faultySource{cases: shardCases(40), fail: map[int]bool{2: true, 37: true}}
	var mu sync.Mutex
	folded := 0
	err := ShardedFold(src, 3, true, func(shard int, c *trace.Case) error {
		mu.Lock()
		folded++
		mu.Unlock()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "case 2 broken") || !strings.Contains(err.Error(), "case 37 broken") {
		t.Errorf("joined error = %v, want both failures", err)
	}
	if folded != 38 {
		t.Errorf("folded %d cases, want 38", folded)
	}
}

// TestShardedFoldFailFast: without joinErrors the earliest failing case
// aborts the fold deterministically.
func TestShardedFoldFailFast(t *testing.T) {
	src := &faultySource{cases: shardCases(40), fail: map[int]bool{20: true}}
	err := ShardedFold(src, 2, false, func(shard int, c *trace.Case) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "case 20 broken") {
		t.Errorf("err = %v, want case 20 failure", err)
	}
}

// TestShardedFoldFoldError: an error from the fold callback is terminal
// and surfaces; reading stops without deadlocking the reader or leaking
// workers.
func TestShardedFoldFoldError(t *testing.T) {
	boom := errors.New("fold exploded")
	for _, shards := range []int{1, 3} {
		src := FromCases(shardCases(50)...)
		err := ShardedFold(src, shards, true, func(shard int, c *trace.Case) error {
			if c.ID.RID == 6 {
				return boom
			}
			return nil
		})
		src.Close()
		if !errors.Is(err, boom) {
			t.Errorf("shards=%d: err = %v, want fold error", shards, err)
		}
	}
}

// TestShardedFoldDefaults: zero shards select GOMAXPROCS without losing
// cases.
func TestShardedFoldDefaults(t *testing.T) {
	src := FromCases(shardCases(100)...)
	defer src.Close()
	var mu sync.Mutex
	seen := make(map[int]bool)
	err := ShardedFold(src, 0, false, func(shard int, c *trace.Case) error {
		mu.Lock()
		seen[c.ID.RID] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Errorf("folded %d distinct cases, want 100", len(seen))
	}
}
