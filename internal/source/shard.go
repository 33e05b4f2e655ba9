package source

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"stinspector/internal/trace"
)

// shardBlock is the number of consecutive cases handed to one shard
// worker per dispatch. Blocks amortize channel traffic; keeping them
// modest keeps the resident-case bound (window + ~3·block·shards) close
// to the source's own window.
const shardBlock = 16

// ShardedFold consumes a source and distributes its cases over shards
// concurrent fold workers: case i belongs to block ⌊i/shardBlock⌋, and
// block j goes to worker j mod shards — a deterministic round-robin
// partition of the case sequence, independent of scheduling. Each worker calls
// fold(shard, c) for its cases in delivery order, so per-shard state
// (an aggregate builder set, say) needs no locking; because every
// source delivers ascending CaseID order, each shard sees an ascending
// subsequence — the precondition under which the analysis aggregates'
// Merge reproduces the sequential fold exactly.
//
// shards <= 0 means runtime.GOMAXPROCS(0); shards == 1 folds inline on
// the calling goroutine (no worker goroutines), making the sequential
// fold the one-shard case of this engine rather than a second
// implementation.
//
// Per-case source errors follow the joinErrors policy of Walk: false
// aborts on the first failing case (deterministically the earliest,
// since delivery is ordered), true skips failing cases and returns
// every failure joined. An error from fold itself is terminal: reading
// stops and the error is returned (when several shards fail
// concurrently, the lowest-numbered shard's error wins). ShardedFold
// does not Close the source.
func ShardedFold(s Source, shards int, joinErrors bool, fold func(shard int, c *trace.Case) error) error {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards == 1 {
		return Walk(s, joinErrors, func(c *trace.Case) error { return fold(0, c) })
	}

	// One channel per shard keeps the block→worker assignment a pure
	// function of the block index, whatever the goroutine scheduling.
	chans := make([]chan []*trace.Case, shards)
	for i := range chans {
		chans[i] = make(chan []*trace.Case, 2)
	}
	foldErrs := make([]error, shards)
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(shards)
	for i := 0; i < shards; i++ {
		go func(i int) {
			defer wg.Done()
			for batch := range chans[i] {
				if foldErrs[i] != nil {
					continue // keep draining so the reader never blocks
				}
				for _, c := range batch {
					if err := fold(i, c); err != nil {
						foldErrs[i] = err
						failed.Store(true)
						break
					}
				}
			}
		}(i)
	}

	var srcErrs []error
	var termErr error
	next := 0
	batch := make([]*trace.Case, 0, shardBlock)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		chans[next] <- batch
		next = (next + 1) % shards
		batch = make([]*trace.Case, 0, shardBlock)
	}
	for termErr == nil && !failed.Load() {
		c, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if joinErrors {
				srcErrs = append(srcErrs, err)
				continue
			}
			termErr = err
			break
		}
		batch = append(batch, c)
		if len(batch) == shardBlock {
			flush()
		}
	}
	flush()
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	if termErr != nil {
		return termErr
	}
	for _, err := range foldErrs {
		if err != nil {
			return err
		}
	}
	return errors.Join(srcErrs...)
}
