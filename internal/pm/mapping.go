package pm

import (
	"sort"
	"strings"

	"stinspector/internal/trace"
)

// Mapping is the partial function f : E ⇀ A_f of Section IV. Map returns
// the activity for an event and whether the event is in the domain of the
// mapping at all; events outside the domain are excluded from the
// activity trace.
type Mapping interface {
	Map(e trace.Event) (Activity, bool)
}

// MappingFunc adapts a plain function to the Mapping interface, the way
// the paper's Python API accepts a user-defined mapping function
// (Figure 6, step 2).
type MappingFunc func(e trace.Event) (Activity, bool)

// Map implements Mapping.
func (f MappingFunc) Map(e trace.Event) (Activity, bool) { return f(e) }

// CallTopDirs is the mapping f̂ of Equation (4): it concatenates the
// system call name with the file path truncated to at most the top Depth
// directory levels. Depth 2 reproduces the paper's examples
// ("read:/usr/lib" for /usr/lib/x86_64-linux-gnu/libselinux.so.1).
type CallTopDirs struct {
	Depth int
}

// Map implements Mapping.
func (m CallTopDirs) Map(e trace.Event) (Activity, bool) {
	return m.MapCallPath(e.Call, e.FP)
}

// MapCallPath implements callPathMapping: the activity depends only on
// the call name and file path, so the symbol layer may memoize it per
// distinct (call, fp) pair.
func (m CallTopDirs) MapCallPath(call, fp string) (Activity, bool) {
	return makeActivity(call, truncatePath(fp, m.Depth)), true
}

// truncatePath keeps at most the top depth directory levels of an
// absolute path: truncatePath("/usr/lib/x/y.so", 2) = "/usr/lib".
// Relative paths and paths shallower than depth are returned unchanged.
// The result is a prefix of fp ending before the depth-th separator
// after the leading one, so truncating allocates nothing.
func truncatePath(fp string, depth int) string {
	if depth <= 0 || !strings.HasPrefix(fp, "/") {
		return fp
	}
	for i := 1; i < len(fp); i++ {
		if fp[i] == '/' {
			if depth--; depth == 0 {
				return fp[:i]
			}
		}
	}
	return fp
}

// CallFileName maps an event to its call plus the final path component,
// the file-level view used in Figure 4 ("read:x86_64-linux-gnu/libselinux.so.1"
// keeps the last Keep components).
type CallFileName struct {
	// Keep is the number of trailing path components retained
	// (default 1).
	Keep int
}

// Map implements Mapping.
func (m CallFileName) Map(e trace.Event) (Activity, bool) {
	return m.MapCallPath(e.Call, e.FP)
}

// MapCallPath implements callPathMapping.
func (m CallFileName) MapCallPath(call, fp string) (Activity, bool) {
	keep := m.Keep
	if keep <= 0 {
		keep = 1
	}
	parts := strings.Split(strings.TrimPrefix(fp, "/"), "/")
	if len(parts) > keep {
		parts = parts[len(parts)-keep:]
	}
	return makeActivity(call, strings.Join(parts, "/")), true
}

// PrefixVar is one rewrite rule of an EnvMapping: paths under Prefix are
// abstracted to the site-specific variable Var (for example
// "/p/scratch/user" to "$SCRATCH").
type PrefixVar struct {
	Prefix string
	Var    string
}

// EnvMapping is the mapping f̄ used in the paper's IOR experiments: it
// abstracts file paths based on site-specific variables ($SCRATCH, $HOME,
// $SOFTWARE, "Node Local"), keeping up to Depth path components below the
// variable, and maps everything else through a plain top-level directory
// truncation.
type EnvMapping struct {
	// Vars are matched in order of decreasing prefix length, so more
	// specific prefixes win.
	Vars []PrefixVar
	// Depth is the number of path components kept below the matched
	// variable; 0 keeps only the variable itself (Figure 8a),
	// 1 distinguishes "$SCRATCH/ssf" from "$SCRATCH/fpp" (Figure 8b).
	Depth int
	// FallbackDepth is the directory truncation for unmatched paths
	// (default 2, as in f̂).
	FallbackDepth int
}

// NewEnvMapping builds an EnvMapping, sorting rules so the longest
// prefixes match first.
func NewEnvMapping(depth int, vars ...PrefixVar) *EnvMapping {
	m := &EnvMapping{Vars: append([]PrefixVar(nil), vars...), Depth: depth, FallbackDepth: 2}
	sort.SliceStable(m.Vars, func(i, j int) bool {
		return len(m.Vars[i].Prefix) > len(m.Vars[j].Prefix)
	})
	return m
}

// Abstract rewrites a path per the mapping's rules.
func (m *EnvMapping) Abstract(fp string) string {
	for _, pv := range m.Vars {
		rest, ok := strings.CutPrefix(fp, pv.Prefix)
		if !ok {
			continue
		}
		if rest != "" && rest[0] != '/' && !strings.HasSuffix(pv.Prefix, "/") {
			continue // partial component match such as /scratchy
		}
		rest = strings.TrimPrefix(rest, "/")
		if m.Depth <= 0 || rest == "" {
			return pv.Var
		}
		parts := strings.Split(rest, "/")
		if len(parts) > m.Depth {
			parts = parts[:m.Depth]
		}
		return pv.Var + "/" + strings.Join(parts, "/")
	}
	fb := m.FallbackDepth
	if fb == 0 {
		fb = 2
	}
	return truncatePath(fp, fb)
}

// Map implements Mapping.
func (m *EnvMapping) Map(e trace.Event) (Activity, bool) {
	return m.MapCallPath(e.Call, e.FP)
}

// MapCallPath implements callPathMapping.
func (m *EnvMapping) MapCallPath(call, fp string) (Activity, bool) {
	return makeActivity(call, m.Abstract(fp)), true
}
