package intern

// Sym is a dense symbol: the i-th distinct string interned into a Local
// gets symbol i. Symbols from different tables are not comparable;
// remap through Local.RemapInto (or re-intern the string) to move
// between tables.
type Sym uint32

// Local is a fully unsynchronized symbol table: the shard-local form
// used by the parallel analysis fold, where each shard worker owns its
// builders outright and pays neither locks nor atomics per event. At
// merge time a shard's Local is remapped into the surviving table with
// RemapInto, which is what keeps shard count unobservable in the
// artifacts: symbols are a private encoding, the strings are the
// meaning.
//
// Its first interned string gets Sym 0, so remapping a Local into a
// fresh Local is the identity, reproducing the symbol assignment a
// sequential fold over the same first-occurrence order would have made.
type Local struct {
	m    map[string]Sym
	strs []string
}

// NewLocal returns an empty local table.
func NewLocal() *Local {
	return &Local{m: make(map[string]Sym, 64)}
}

// Intern returns the symbol for s, assigning the next dense symbol on
// first sight. The string is retained as given (callers pass canonical
// or freshly built strings).
func (l *Local) Intern(s string) Sym {
	if y, ok := l.m[s]; ok {
		return y
	}
	y := Sym(len(l.strs))
	l.strs = append(l.strs, s)
	l.m[s] = y
	return y
}

// Sym looks up the symbol for s without interning.
func (l *Local) Sym(s string) (Sym, bool) {
	y, ok := l.m[s]
	return y, ok
}

// Str returns the string of a symbol previously returned by Intern.
func (l *Local) Str(y Sym) string { return l.strs[y] }

// Len returns the number of distinct strings interned.
func (l *Local) Len() int { return len(l.strs) }

// Strs returns the interned strings in symbol order, Strs()[y] ==
// Str(y). The slice is the table's own: callers must not modify it.
func (l *Local) Strs() []string { return l.strs }

// RemapInto interns every symbol of l into dst and returns the
// translation r, with r[localSym] = dst symbol for the same string.
// Remapping preserves meaning exactly — dst.Str(r[y]) == l.Str(y) for
// every y — which is the property the merge layer's aggregate folds
// rely on. Remapping into an empty Local is the identity.
func (l *Local) RemapInto(dst *Local) []Sym {
	r := make([]Sym, len(l.strs))
	for i, s := range l.strs {
		r[i] = dst.Intern(s)
	}
	return r
}
