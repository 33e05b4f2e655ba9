// Package behavior derives behavior profiles from event-logs: per case
// and merged, which files a process opened, read, wrote, deleted or
// renamed, which commands it executed and which network endpoints it
// connected to. It is the third mergeable aggregate of the fold next to
// the activity-log (pm) and the statistics (stats), and the
// consumer the semantic decoding layer (internal/strace/decode.go)
// exists for: the strace parser folds dirfd resolution, argv decoding
// and socket-address decoding into the event file-path, so
// classification here is a pure function of the backend-independent
// trace.Event — the same profile falls out of strace text, STA/STA2
// archives and DXT dumps.
//
// Profiles follow the aggregate contract of the other three: Merge is
// exact (integer count sums under a string-preserving symbol remap), so
// profiles built per shard, per epoch or per process combine into
// byte-identical artifacts at any parallelism, window, shard count or
// symbol-table scoping. Each profile owns a scoped intern.Local symbol
// table for its subjects — the private encoding dies with the profile;
// the strings are the meaning. The queries, snapshot encoding included, only read a profile, so
// they may run concurrently with each other.
package behavior

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// opClass classifies what a behavior-relevant event did to its subject.
type opClass uint8

const (
	// opOpened is a plain file open (open/openat/openat2).
	opOpened opClass = iota
	// opRead is a byte-transferring read variant.
	opRead
	// opWritten covers write variants and file-creating or
	// -truncating mutations (creat, truncate, mkdir).
	opWritten
	// opDeleted is a file or directory removal.
	opDeleted
	// opRenamed is a rename; the subject is the source path.
	opRenamed
	// opSpawned is a process execution; the subject is the decoded
	// command line.
	opSpawned
	// opConnected is a network connection; the subject is the
	// canonical endpoint ("ip:port", "[v6]:port", or a socket path).
	opConnected

	numOps
)

var opNames = [numOps]string{
	"opened", "read", "written", "deleted", "renamed", "spawned", "connected",
}

func (o opClass) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// classify maps a system-call name to its behavior class. Calls outside
// the behavior taxonomy (close, lseek, fsync, …) report false and do
// not contribute to profiles.
func classify(call string) (opClass, bool) {
	switch call {
	case "open", "openat", "openat2":
		return opOpened, true
	case "read", "pread64", "readv", "preadv", "preadv2":
		return opRead, true
	case "write", "pwrite64", "writev", "pwritev", "pwritev2",
		"creat", "truncate", "ftruncate", "mkdir", "mkdirat":
		return opWritten, true
	case "unlink", "unlinkat", "rmdir":
		return opDeleted, true
	case "rename", "renameat", "renameat2":
		return opRenamed, true
	case "execve", "execveat":
		return opSpawned, true
	case "connect":
		return opConnected, true
	}
	return 0, false
}

// Profile is the mergeable behavior aggregate: per-case counts of
// distinct subjects per operation class. Like dfg.Graph it is both the
// accumulator and the queryable result — AddCase folds a case in,
// Merge combines profiles exactly, and the queries (Cases, Merged,
// Totals, RenderText, EncodeSnapshot) materialize deterministic views
// at any point. The queries only read the profile, so any number of
// them may run concurrently while nothing folds or merges into it.
//
// Each case keeps one run of entries sorted by (operation, subject
// string). The run is sorted once, when the case is folded; merges
// keep it sorted, and every query walks it in that order.
type Profile struct {
	syms  *intern.Local
	cases map[trace.CaseID]caseAcc
	// tally counts one case's (op, subject) pairs in AddCase; it is
	// emptied after each case and reused.
	tally map[opSym]int
}

type caseAcc struct {
	run    []entry
	events int
}

// entry is one subject of a case under one operation, with its count.
type entry struct {
	sym   intern.Sym
	op    opClass
	count int
}

type opSym struct {
	sym intern.Sym
	op  opClass
}

// New returns an empty profile owning a fresh scoped symbol table.
func New() *Profile {
	return &Profile{
		syms:  intern.NewLocal(),
		cases: make(map[trace.CaseID]caseAcc),
	}
}

// AddCase folds every event of the case. Events outside the behavior
// taxonomy or without a subject are skipped; a case with none of its
// own adds nothing.
func (p *Profile) AddCase(c *trace.Case) {
	if p.tally == nil {
		p.tally = make(map[opSym]int)
	}
	events := 0
	for i := range c.Events {
		e := &c.Events[i]
		op, ok := classify(e.Call)
		if !ok || e.FP == "" {
			continue
		}
		p.tally[opSym{p.syms.Intern(e.FP), op}]++
		events++
	}
	if events == 0 {
		return
	}
	run := make([]entry, 0, len(p.tally))
	for k, n := range p.tally {
		run = append(run, entry{sym: k.sym, op: k.op, count: n})
	}
	clear(p.tally)
	slices.SortFunc(run, p.compare)
	p.addRun(c.ID, run, events)
}

// addRun adds a sorted run of the profile's own symbols to case id:
// a new case adopts it, a known one merges it into its run.
func (p *Profile) addRun(id trace.CaseID, run []entry, events int) {
	acc, ok := p.cases[id]
	if ok {
		run = p.mergeRuns(acc.run, run)
		events += acc.events
	}
	p.cases[id] = caseAcc{run: run, events: events}
}

// compare orders entries by operation, then by subject string.
func (p *Profile) compare(a, b entry) int {
	if a.op != b.op {
		return int(a.op) - int(b.op)
	}
	if a.sym == b.sym {
		return 0
	}
	return strings.Compare(p.syms.Str(a.sym), p.syms.Str(b.sym))
}

// mergeRuns returns the linear merge of two sorted runs into a new
// run, summing the counts of an entry present in both. Neither input
// is modified.
func (p *Profile) mergeRuns(a, b []entry) []entry {
	out := make([]entry, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := p.compare(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			e := a[0]
			e.count += b[0].count
			out, a, b = append(out, e), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// Merge folds q into p, exactly: q's symbols are remapped into p's
// table (a string-preserving translation, so a remapped run stays
// sorted) and the per-case counts sum as integers. Merging per-shard or
// per-epoch profiles of a disjoint case partition in any order yields
// the same queryable state — and the same snapshot bytes — a single
// sequential fold produces. q is not modified; a nil q is a no-op.
func (p *Profile) Merge(q *Profile) {
	if q == nil {
		return
	}
	r := q.syms.RemapInto(p.syms)
	for id, qa := range q.cases {
		run := make([]entry, len(qa.run))
		for i, e := range qa.run {
			e.sym = r[e.sym]
			run[i] = e
		}
		p.addRun(id, run, qa.events)
	}
}

// Events returns the total number of behavior events folded in.
func (p *Profile) Events() int {
	n := 0
	for _, acc := range p.cases {
		n += acc.events
	}
	return n
}

// opSegment returns the segment of a sorted run under one operation.
func opSegment(run []entry, op opClass) []entry {
	lo := sort.Search(len(run), func(i int) bool { return run[i].op >= op })
	hi := lo + sort.Search(len(run)-lo, func(i int) bool { return run[lo+i].op > op })
	return run[lo:hi]
}

// subjectOrder returns every subject of the profile in ascending
// string order. Every symbol of the table is the subject of some entry:
// symbols are interned only for counted events and never removed.
func (p *Profile) subjectOrder() []intern.Sym {
	order := make([]intern.Sym, p.syms.Len())
	for y := range order {
		order[y] = intern.Sym(y)
	}
	slices.SortFunc(order, func(a, b intern.Sym) int {
		return strings.Compare(p.syms.Str(a), p.syms.Str(b))
	})
	return order
}

// eachMerged calls fn for every (op, subject) of the union over all
// cases, in operation then subject order, with the count summed across
// cases. order is subjectOrder's result; counts is scratch of one int
// per symbol, reused for each operation in turn.
func (p *Profile) eachMerged(order []intern.Sym, counts []int, fn func(op opClass, y intern.Sym, n int)) {
	for op := opClass(0); op < numOps; op++ {
		clear(counts)
		for _, acc := range p.cases {
			for _, e := range opSegment(acc.run, op) {
				counts[e.sym] += e.count
			}
		}
		for _, y := range order {
			if counts[y] > 0 {
				fn(op, y, counts[y])
			}
		}
	}
}

// Totals returns the merged distinct-subject counts by theme: files
// (opened/read/written/deleted/renamed paths), hosts (connection
// endpoints) and commands (spawn command lines) — the structural
// columns the benchmark matrix tracks.
func (p *Profile) Totals() (files, hosts, commands int) {
	const fileOps = 1<<opOpened | 1<<opRead | 1<<opWritten | 1<<opDeleted | 1<<opRenamed
	ops := make([]uint8, p.syms.Len()) // bit op set when the subject occurs under op
	for _, acc := range p.cases {
		for _, e := range acc.run {
			ops[e.sym] |= 1 << e.op
		}
	}
	for _, m := range ops {
		if m&fileOps != 0 {
			files++
		}
		if m&(1<<opConnected) != 0 {
			hosts++
		}
		if m&(1<<opSpawned) != 0 {
			commands++
		}
	}
	return files, hosts, commands
}

func (p *Profile) sortedIDs() []trace.CaseID {
	ids := make([]trace.CaseID, 0, len(p.cases))
	for id := range p.cases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}
