package behavior

import (
	"strconv"
	"strings"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// RenderText renders the profile as a deterministic text listing: the
// merged view first, then every case in ascending CaseID order, one
// line per (operation, subject) with its count. Subjects are quoted as
// fmt's %q quotes them, so hostile path bytes render unambiguously. The
// output is a pure function of the profile's content — the form the
// equivalence matrix compares across backends and fold shapes.
//
// The listing is appended into one buffer sized exactly up front; no
// per-case or per-entry views are built.
func (p *Profile) RenderText() string {
	ids := p.sortedIDs()
	order := p.subjectOrder()
	counts := make([]int, len(order))
	events := p.Events()

	w := textWriter{syms: p.syms, quoted: make([]int, len(order))}
	for y := range w.quoted {
		s := p.syms.Str(intern.Sym(y))
		if plainASCII(s) {
			w.quoted[y] = len(s) + 2
		} else {
			w.scratch = strconv.AppendQuote(w.scratch[:0], s)
			w.quoted[y] = len(w.scratch)
		}
	}
	lineLen := func(op opClass, y intern.Sym, count int) int { // "  op subject count\n"
		return 2 + len(opNames[op]) + 1 + w.quoted[y] + 1 + decLen(count) + 1
	}
	size := len("behavior:  cases,  events\n") + decLen(len(ids)) + decLen(events) +
		len("merged:  events\n") + decLen(events)
	p.eachMerged(order, counts, func(op opClass, y intern.Sym, n int) {
		size += lineLen(op, y, n)
	})
	for _, id := range ids {
		acc := p.cases[id]
		size += len(id.CID) + len(id.Host) + decLen(id.RID) + len("__:  events\n") + decLen(acc.events)
		for _, e := range acc.run {
			size += lineLen(e.op, e.sym, e.count)
		}
	}

	w.b.Grow(size)
	w.b.WriteString("behavior: ")
	w.int(len(ids))
	w.b.WriteString(" cases, ")
	w.int(events)
	w.b.WriteString(" events\n")

	w.b.WriteString("merged: ")
	w.header(events)
	p.eachMerged(order, counts, w.line)
	for _, id := range ids {
		acc := p.cases[id]
		w.caseID(id)
		w.b.WriteString(": ")
		w.header(acc.events)
		for _, e := range acc.run {
			w.line(e.op, e.sym, e.count)
		}
	}
	return w.b.String()
}

// textWriter appends RenderText's lines without fmt: numbers and
// quoted subjects that need escapes go through one reused scratch
// buffer.
type textWriter struct {
	b       strings.Builder
	scratch []byte
	syms    *intern.Local
	// quoted[y] is the length of subject y quoted.
	quoted []int
}

func (w *textWriter) int(n int) {
	w.scratch = strconv.AppendInt(w.scratch[:0], int64(n), 10)
	w.b.Write(w.scratch)
}

// header ends a view's label line: "<events> events\n".
func (w *textWriter) header(events int) {
	w.int(events)
	w.b.WriteString(" events\n")
}

// caseID writes id as CaseID.String does: CID_Host_RID.
func (w *textWriter) caseID(id trace.CaseID) {
	w.b.WriteString(id.CID)
	w.b.WriteByte('_')
	w.b.WriteString(id.Host)
	w.b.WriteByte('_')
	w.int(id.RID)
}

// line writes `  <op> <quoted subject> <count>\n`. Quoting replaces
// every byte or rune it escapes with a longer sequence, so a subject
// whose quoted length is its own plus the two quotes is written as is.
func (w *textWriter) line(op opClass, y intern.Sym, count int) {
	s := w.syms.Str(y)
	w.b.WriteString("  ")
	w.b.WriteString(opNames[op])
	w.b.WriteByte(' ')
	if w.quoted[y] == len(s)+2 {
		w.b.WriteByte('"')
		w.b.WriteString(s)
		w.b.WriteByte('"')
	} else {
		w.scratch = strconv.AppendQuote(w.scratch[:0], s)
		w.b.Write(w.scratch)
	}
	w.b.WriteByte(' ')
	w.int(count)
	w.b.WriteByte('\n')
}

// plainASCII reports whether strconv.Quote (and so %q) renders s as
// itself between double quotes: printable ASCII without '"' or '\'.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// decLen is the length of n in decimal.
func decLen(n int) int {
	l := 1
	if n < 0 {
		l++
	}
	for n >= 10 || n <= -10 {
		n /= 10
		l++
	}
	return l
}
