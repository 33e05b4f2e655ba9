// Package behavior derives behavior profiles from event-logs: per case
// and merged, which files a process opened, read, wrote, deleted or
// renamed, which commands it executed and which network endpoints it
// connected to. It is the fourth mergeable aggregate next to the
// activity-log (pm), the DFG (dfg) and the statistics (stats), and the
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
// the strings are the meaning.
package behavior

import (
	"fmt"
	"sort"
	"strings"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// Op classifies what a behavior-relevant event did to its subject.
type Op uint8

const (
	// OpOpened is a plain file open (open/openat/openat2).
	OpOpened Op = iota
	// OpRead is a byte-transferring read variant.
	OpRead
	// OpWritten covers write variants and file-creating or
	// -truncating mutations (creat, truncate, mkdir).
	OpWritten
	// OpDeleted is a file or directory removal.
	OpDeleted
	// OpRenamed is a rename; the subject is the source path.
	OpRenamed
	// OpSpawned is a process execution; the subject is the decoded
	// command line.
	OpSpawned
	// OpConnected is a network connection; the subject is the
	// canonical endpoint ("ip:port", "[v6]:port", or a socket path).
	OpConnected

	numOps
)

var opNames = [numOps]string{
	"opened", "read", "written", "deleted", "renamed", "spawned", "connected",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Classify maps a system-call name to its behavior class. Calls outside
// the behavior taxonomy (close, lseek, fsync, …) report false and do
// not contribute to profiles.
func Classify(call string) (Op, bool) {
	switch call {
	case "open", "openat", "openat2":
		return OpOpened, true
	case "read", "pread64", "readv", "preadv", "preadv2":
		return OpRead, true
	case "write", "pwrite64", "writev", "pwritev", "pwritev2",
		"creat", "truncate", "ftruncate", "mkdir", "mkdirat":
		return OpWritten, true
	case "unlink", "unlinkat", "rmdir":
		return OpDeleted, true
	case "rename", "renameat", "renameat2":
		return OpRenamed, true
	case "execve", "execveat":
		return OpSpawned, true
	case "connect":
		return OpConnected, true
	}
	return 0, false
}

// Profile is the mergeable behavior aggregate: per-case counts of
// distinct subjects per operation class. Like dfg.Graph it is both the
// accumulator and the queryable result — Add/AddCase fold events in,
// Merge combines profiles exactly, and the query methods (Cases,
// Merged, RenderText) materialize deterministic views at any point.
type Profile struct {
	syms  *intern.Local
	cases map[trace.CaseID]*caseAcc
}

type caseAcc struct {
	ops    [numOps]map[intern.Sym]int
	events int
	// order caches each op's subjects in ascending string order for
	// EncodeSnapshot. Subjects are never removed, so the cache is
	// current exactly when its length matches the op's map.
	order [numOps][]intern.Sym
}

// subjectOrder returns the op's subjects in ascending string order,
// re-sorting only when subjects were added since the last call.
func (acc *caseAcc) subjectOrder(op Op, syms *intern.Local) []intern.Sym {
	m := acc.ops[op]
	if len(acc.order[op]) == len(m) {
		return acc.order[op]
	}
	ys := acc.order[op][:0]
	for y := range m {
		ys = append(ys, y)
	}
	sort.Slice(ys, func(i, j int) bool { return syms.Str(ys[i]) < syms.Str(ys[j]) })
	acc.order[op] = ys
	return ys
}

// New returns an empty profile owning a fresh scoped symbol table.
func New() *Profile {
	return &Profile{
		syms:  intern.NewLocal(),
		cases: make(map[trace.CaseID]*caseAcc),
	}
}

// add folds one event of case id into the profile. Events outside the
// behavior taxonomy or without a subject are skipped.
func (p *Profile) add(id trace.CaseID, e *trace.Event) {
	op, ok := Classify(e.Call)
	if !ok || e.FP == "" {
		return
	}
	acc := p.cases[id]
	if acc == nil {
		acc = &caseAcc{}
		p.cases[id] = acc
	}
	m := acc.ops[op]
	if m == nil {
		m = make(map[intern.Sym]int)
		acc.ops[op] = m
	}
	m[p.syms.Intern(e.FP)]++
	acc.events++
}

// AddCase folds every event of the case.
func (p *Profile) AddCase(c *trace.Case) {
	for i := range c.Events {
		p.add(c.ID, &c.Events[i])
	}
}

// FromLog builds a profile over a whole event-log.
func FromLog(el *trace.EventLog) *Profile {
	p := New()
	for _, c := range el.Cases() {
		p.AddCase(c)
	}
	return p
}

// Merge folds q into p, exactly: q's symbols are remapped into p's
// table (a string-preserving translation) and the per-case counts sum
// as integers. Merging per-shard or per-epoch profiles of a disjoint
// case partition in any order yields the same queryable state — and
// the same snapshot bytes — a single sequential fold produces. q is
// not modified; a nil q is a no-op.
func (p *Profile) Merge(q *Profile) {
	if q == nil {
		return
	}
	r := q.syms.RemapInto(p.syms)
	for id, qa := range q.cases {
		acc := p.cases[id]
		if acc == nil {
			acc = &caseAcc{}
			p.cases[id] = acc
		}
		acc.events += qa.events
		for op, m := range qa.ops {
			if len(m) == 0 {
				continue
			}
			dm := acc.ops[op]
			if dm == nil {
				dm = make(map[intern.Sym]int, len(m))
				acc.ops[op] = dm
			}
			for y, n := range m {
				dm[r[y]] += n
			}
		}
	}
}

// NumCases returns the number of cases with at least one behavior
// event.
func (p *Profile) NumCases() int { return len(p.cases) }

// Events returns the total number of behavior events folded in.
func (p *Profile) Events() int {
	n := 0
	for _, acc := range p.cases {
		n += acc.events
	}
	return n
}

// Entry is one subject of a case profile with its event count.
type Entry struct {
	Subject string
	Count   int
}

// CaseProfile is the queryable per-case (or merged) view: for each
// operation class, the distinct subjects touched with their counts, in
// ascending subject order.
type CaseProfile struct {
	ID     trace.CaseID
	Events int
	Opened, Read, Written, Deleted,
	Renamed, Spawned, Connected []Entry
}

func (cp *CaseProfile) byOp() [numOps]*[]Entry {
	return [numOps]*[]Entry{
		&cp.Opened, &cp.Read, &cp.Written, &cp.Deleted,
		&cp.Renamed, &cp.Spawned, &cp.Connected,
	}
}

func (p *Profile) caseProfile(id trace.CaseID, acc *caseAcc) CaseProfile {
	cp := CaseProfile{ID: id, Events: acc.events}
	dst := cp.byOp()
	for op := Op(0); op < numOps; op++ {
		m := acc.ops[op]
		if len(m) == 0 {
			continue
		}
		es := make([]Entry, 0, len(m))
		for y, n := range m {
			es = append(es, Entry{Subject: p.syms.Str(y), Count: n})
		}
		sort.Slice(es, func(i, j int) bool { return es[i].Subject < es[j].Subject })
		*dst[op] = es
	}
	return cp
}

// Cases returns the per-case profiles in ascending CaseID order.
func (p *Profile) Cases() []CaseProfile {
	ids := p.sortedIDs()
	out := make([]CaseProfile, len(ids))
	for i, id := range ids {
		out[i] = p.caseProfile(id, p.cases[id])
	}
	return out
}

// Merged returns the union profile over every case: the distinct
// subjects per operation with counts summed across cases. Its ID is
// the zero CaseID.
func (p *Profile) Merged() CaseProfile {
	acc := &caseAcc{}
	for _, ca := range p.cases {
		acc.events += ca.events
		for op, m := range ca.ops {
			if len(m) == 0 {
				continue
			}
			dm := acc.ops[op]
			if dm == nil {
				dm = make(map[intern.Sym]int, len(m))
				acc.ops[op] = dm
			}
			for y, n := range m {
				dm[y] += n
			}
		}
	}
	return p.caseProfile(trace.CaseID{}, acc)
}

// Totals returns the merged distinct-subject counts by theme: files
// (opened/read/written/deleted/renamed paths), hosts (connection
// endpoints) and commands (spawn command lines) — the structural
// columns the benchmark matrix tracks.
func (p *Profile) Totals() (files, hosts, commands int) {
	distinct := [numOps]map[intern.Sym]bool{}
	for _, ca := range p.cases {
		for op, m := range ca.ops {
			if len(m) == 0 {
				continue
			}
			if distinct[op] == nil {
				distinct[op] = make(map[intern.Sym]bool, len(m))
			}
			for y := range m {
				distinct[op][y] = true
			}
		}
	}
	fileSet := make(map[intern.Sym]bool)
	for _, op := range []Op{OpOpened, OpRead, OpWritten, OpDeleted, OpRenamed} {
		for y := range distinct[op] {
			fileSet[y] = true
		}
	}
	return len(fileSet), len(distinct[OpConnected]), len(distinct[OpSpawned])
}

func (p *Profile) sortedIDs() []trace.CaseID {
	ids := make([]trace.CaseID, 0, len(p.cases))
	for id := range p.cases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// RenderText renders the profile as a deterministic text listing: the
// merged view first, then every case in ascending CaseID order.
// Subjects are quoted, so hostile path bytes render unambiguously. The
// output is a pure function of the profile's content — the form the
// equivalence matrix compares across backends and fold shapes.
func (p *Profile) RenderText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "behavior: %d cases, %d events\n", p.NumCases(), p.Events())
	writeCaseProfile(&b, "merged", p.Merged())
	for _, cp := range p.Cases() {
		writeCaseProfile(&b, cp.ID.String(), cp)
	}
	return b.String()
}

func writeCaseProfile(b *strings.Builder, label string, cp CaseProfile) {
	fmt.Fprintf(b, "%s: %d events\n", label, cp.Events)
	src := cp.byOp()
	for op := Op(0); op < numOps; op++ {
		for _, e := range *src[op] {
			fmt.Fprintf(b, "  %s %q %d\n", opNames[op], e.Subject, e.Count)
		}
	}
}
