package behavior

import (
	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// The Profile views only the external tests read: the per-case and
// merged profiles are the input of refRender, the reference rendering
// RenderText is checked against.

// NumCases returns the number of cases with at least one behavior
// event.
func (p *Profile) NumCases() int { return len(p.cases) }

// Cases returns the per-case profiles in ascending CaseID order.
func (p *Profile) Cases() []CaseProfile {
	ids := p.sortedIDs()
	out := make([]CaseProfile, len(ids))
	for i, id := range ids {
		acc := p.cases[id]
		cp := CaseProfile{ID: id, Events: acc.events}
		dst := cp.byOp()
		for op := opClass(0); op < numOps; op++ {
			seg := opSegment(acc.run, op)
			if len(seg) == 0 {
				continue
			}
			es := make([]Entry, len(seg))
			for j, e := range seg {
				es[j] = Entry{Subject: p.syms.Str(e.sym), Count: e.count}
			}
			*dst[op] = es
		}
		out[i] = cp
	}
	return out
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

// Merged returns the union profile over every case: the distinct
// subjects per operation with counts summed across cases. Its ID is
// the zero CaseID.
func (p *Profile) Merged() CaseProfile {
	cp := CaseProfile{Events: p.Events()}
	dst := cp.byOp()
	p.eachMerged(p.subjectOrder(), make([]int, p.syms.Len()), func(op opClass, y intern.Sym, n int) {
		*dst[op] = append(*dst[op], Entry{Subject: p.syms.Str(y), Count: n})
	})
	return cp
}
