package pm

import (
	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// NoActivity is the sentinel SymMapper.MapCase writes for events
// outside the mapping's domain.
const NoActivity = ^intern.Sym(0)

// callPathMapping marks mappings whose activity is a pure function of
// the event's Call and FP attributes — true for the paper's f̂
// (CallTopDirs), the file-level view (CallFileName) and the
// site-variable abstraction (EnvMapping). The symbol layer memoizes
// such mappings per distinct (call, fp) pair, so the activity string is
// built once per pair instead of once per event. Mappings that inspect
// other attributes (a restrict predicate over durations, say) must not
// implement it; they fall back to the per-event Map call.
type callPathMapping interface {
	Mapping
	// MapCallPath returns the activity for an event with the given
	// system call name and file path. It must agree with Map for every
	// event carrying those attributes.
	MapCallPath(call, fp string) (Activity, bool)
}

// SymMapper applies a Mapping in symbol space: events map to dense
// activity symbols drawn from an unsynchronized local table, so the
// builders downstream (activity-log, DFG, statistics) count on integer
// keys instead of concatenated strings. One SymMapper — and therefore
// one activity table — is shared by all builders of one analysis
// shard; at merge time the shard tables are remapped into the
// survivor's (intern.Local.RemapInto). For call/path-pure mappings the
// decision is memoized per distinct (call, fp) string pair, so an event
// costs one hash of that pair; calls and paths get no symbols.
//
// A SymMapper is unsynchronized: one per goroutine.
type SymMapper struct {
	m    Mapping
	pure callPathMapping // non-nil when m is call/path-pure

	acts *intern.Local // activity strings → symbols

	// memo caches the (call, fp) → activity decision for pure
	// mappings.
	memo map[callPath]memoEntry
}

// callPath is the memo key: an event's system call name and file path.
type callPath struct{ call, fp string }

type memoEntry struct {
	act intern.Sym
	ok  bool
}

// NewSymMapper wraps a mapping for symbol-space application.
func NewSymMapper(m Mapping) *SymMapper {
	sm := &SymMapper{
		m:    m,
		acts: intern.NewLocal(),
		memo: make(map[callPath]memoEntry, 64),
	}
	if p, ok := m.(callPathMapping); ok {
		sm.pure = p
	}
	return sm
}

// Acts exposes the activity symbol table shared by the shard's
// builders: Str materializes an activity symbol back into its string.
func (sm *SymMapper) Acts() *intern.Local { return sm.acts }

// mapEvent maps one event to its activity symbol; ok is false when the
// event is outside the mapping's domain. For pure mappings the
// activity string is built at most once per distinct (call, fp) pair.
func (sm *SymMapper) mapEvent(e *trace.Event) (intern.Sym, bool) {
	if sm.pure == nil {
		a, ok := sm.m.Map(*e)
		if !ok {
			return 0, false
		}
		return sm.acts.Intern(string(a)), true
	}
	key := callPath{e.Call, e.FP}
	if me, ok := sm.memo[key]; ok {
		return me.act, me.ok
	}
	a, ok := sm.pure.MapCallPath(e.Call, e.FP)
	var act intern.Sym
	if ok {
		act = sm.acts.Intern(string(a))
	}
	sm.memo[key] = memoEntry{act: act, ok: ok}
	return act, ok
}

// MapCase maps every event of the case in order, appending one entry
// per event to buf (NoActivity for events outside the domain) and
// returning the extended slice. Reusing buf across cases keeps the
// per-case mapping allocation-free.
func (sm *SymMapper) MapCase(c *trace.Case, buf []intern.Sym) []intern.Sym {
	for i := range c.Events {
		if a, ok := sm.mapEvent(&c.Events[i]); ok {
			buf = append(buf, a)
		} else {
			buf = append(buf, NoActivity)
		}
	}
	return buf
}
