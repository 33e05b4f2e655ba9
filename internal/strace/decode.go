package strace

// decode.go is the semantic decoding layer: per-syscall-class byte-level
// decoders that understand the *argument structure* of a record instead
// of treating it as an opaque string. It owns path extraction (with
// dirfd resolution), C-literal unescaping, the spawn subject built from
// execve argv arrays and the connection subject decoded from socket
// addresses. recordToEvent calls it once per kept record to fill the
// event's file path; the behavior package folds those events into
// profiles.
//
// Everything here stays on the zero-alloc hot path: decoders scan bytes
// of the argument strings (which are subslices of the parse arena) and
// build derived strings — dirfd joins, spawn command lines, canonical
// connection subjects — into a caller-owned scratch buffer that is
// canonicalized through the string cache with CanonBytes. No regexp is
// ever compiled or matched per event: the regexp-per-line approach of
// tools like package-analysis is exactly the anti-pattern this layer
// exists to avoid.

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// extractPathInto is the hot-path form of path extraction: when the
// path is a subslice of existing strings it is returned directly
// (built == false, no allocation); when it must be assembled — a dirfd
// join, an unescape, a spawn command line, a connection subject — the
// bytes are built into *scratch and built == true is returned, so the
// caller canonicalizes them with CanonBytes without ever materializing
// an intermediate string.
func extractPathInto(r *record, scratch *[]byte) (string, bool) {
	switch r.Call {
	case "openat", "unlinkat", "mkdirat":
		// openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 3</etc/passwd>
		// openat(5</data>, "part.bin", O_RDONLY) = 6</data/part.bin>
		if r.RetPath != "" {
			return r.RetPath, false
		}
		if len(r.Args) >= 2 {
			if body, esc, ok := unquoteBody(r.Args[1]); ok {
				return resolvePath(r.Args[0], body, esc, scratch)
			}
		}
	case "open", "creat", "unlink", "mkdir", "rmdir", "truncate":
		if r.RetPath != "" {
			return r.RetPath, false
		}
		if len(r.Args) >= 1 {
			if body, esc, ok := unquoteBody(r.Args[0]); ok {
				if !esc {
					return body, false
				}
				*scratch = appendUnquoted((*scratch)[:0], body)
				return "", true
			}
		}
	case "rename", "renameat", "renameat2":
		// The source path identifies the activity; for the *at
		// variants the path arguments sit at positions 1 and 3.
		idx := 0
		if r.Call != "rename" {
			idx = 1
		}
		if len(r.Args) > idx {
			if body, esc, ok := unquoteBody(r.Args[idx]); ok {
				if idx == 0 {
					// Plain rename paths are cwd-relative or absolute
					// as written.
					if !esc {
						return body, false
					}
					*scratch = appendUnquoted((*scratch)[:0], body)
					return "", true
				}
				return resolvePath(r.Args[idx-1], body, esc, scratch)
			}
		}
	case "execve":
		if p, built, ok := spawnInto(r, 0, 1, scratch); ok {
			return p, built
		}
	case "execveat":
		if p, built, ok := spawnInto(r, 1, 2, scratch); ok {
			return p, built
		}
	case "connect":
		// connect(3<socket:[12345]>, {sa_family=AF_INET, …}, 16): the
		// canonical subject comes from the address struct; the
		// socket-inode annotation is only the fallback.
		if len(r.Args) >= 2 {
			if b, ok := appendSockaddrSubject((*scratch)[:0], r.Args[1]); ok {
				*scratch = b
				return "", true
			}
		}
	}
	if p, ok := r.firstArgPath(); ok {
		return p, false
	}
	// Fall back to a quoted first argument: an execve whose argv did not
	// decode, or a kept call not listed above.
	if len(r.Args) >= 1 {
		if body, esc, ok := unquoteBody(r.Args[0]); ok {
			if !esc {
				return body, false
			}
			*scratch = appendUnquoted((*scratch)[:0], body)
			return "", true
		}
	}
	return "", false
}

// resolvePath resolves a path argument against its dirfd argument:
// absolute paths pass through, relative paths join the dirfd's -y
// annotation with exactly one separator, and relative paths whose dirfd
// carries no annotation get the distinct "./" cwd marker — so behavior
// profiles never conflate the cwd-relative "x" with the absolute "/x".
// strace never escapes printable ASCII, so a leading '/' in the raw
// body is authoritative even when later bytes are escaped.
func resolvePath(dirArg, body string, esc bool, scratch *[]byte) (string, bool) {
	if len(body) > 0 && body[0] == '/' {
		if !esc {
			return body, false
		}
		*scratch = appendUnquoted((*scratch)[:0], body)
		return "", true
	}
	if body == "" {
		// AT_EMPTY_PATH: the subject is the dirfd itself.
		if dir, ok := splitDirFD(dirArg); ok {
			return dir, false
		}
		return "", false
	}
	return resolveDirRel(dirArg, body, esc, scratch)
}

// resolveDirRel builds dir-relative joins into scratch. The join never
// doubles the separator (a dirfd annotated "/" yields "/x", not "//x").
func resolveDirRel(dirArg, body string, esc bool, scratch *[]byte) (string, bool) {
	b := (*scratch)[:0]
	if dir, ok := splitDirFD(dirArg); ok && dir != "" {
		b = append(b, dir...)
		if dir[len(dir)-1] != '/' {
			b = append(b, '/')
		}
	} else {
		b = append(b, "./"...)
	}
	if esc {
		b = appendUnquoted(b, body)
	} else {
		b = append(b, body...)
	}
	*scratch = b
	return "", true
}

// splitDirFD splits a dirfd argument carrying a -y path annotation —
// "5</data>" or "AT_FDCWD</home/u>" — into the annotated directory.
// Unlike splitFDPath it accepts the symbolic AT_FDCWD form strace
// prints for the cwd dirfd.
func splitDirFD(s string) (dir string, ok bool) {
	i := strings.IndexByte(s, '<')
	if i <= 0 || !strings.HasSuffix(s, ">") {
		return "", false
	}
	if s[:i] != "AT_FDCWD" {
		if _, err := strconv.Atoi(s[:i]); err != nil {
			return "", false
		}
	}
	return s[i+1 : len(s)-1], true
}

// spawnInto builds the spawn subject — the program path followed by the
// decoded argv tail ("path arg1 arg2 …") — into scratch. argv[0] is
// skipped: it conventionally repeats the program name. Records without
// an argv array (writer-dialect round trips, plain path forms) yield
// the bare program path.
func spawnInto(r *record, pathIdx, argvIdx int, scratch *[]byte) (path string, built, ok bool) {
	if r.RetPath != "" {
		return r.RetPath, false, true
	}
	if len(r.Args) <= pathIdx {
		return "", false, false
	}
	body, esc, okq := unquoteBody(r.Args[pathIdx])
	if !okq || body == "" {
		// An empty program path is not a decodable spawn subject.
		return "", false, false
	}
	rel := len(body) > 0 && body[0] != '/' && pathIdx > 0
	hasArgv := len(r.Args) > argvIdx && len(r.Args[argvIdx]) > 0 && r.Args[argvIdx][0] == '['
	if !hasArgv && !esc && !rel {
		return body, false, true
	}
	var b []byte
	if rel {
		// execveat: resolve the program path against its dirfd.
		resolveDirRel(r.Args[pathIdx-1], body, esc, scratch)
		b = *scratch
	} else {
		b = (*scratch)[:0]
		if esc {
			b = appendUnquoted(b, body)
		} else {
			b = append(b, body...)
		}
	}
	if hasArgv {
		first := true
		forEachArrayItem(r.Args[argvIdx], func(item string) {
			if first {
				first = false
				return
			}
			ab, aesc, ok := unquoteBody(item)
			if !ok {
				return
			}
			b = append(b, ' ')
			if aesc {
				b = appendUnquoted(b, ab)
			} else {
				b = append(b, ab...)
			}
		})
	}
	*scratch = b
	return "", true, true
}

// forEachArrayItem iterates the top-level items of a strace array
// literal like `["ls", "-l"]`, calling fn with each raw (still quoted)
// item. Nested brackets and quoted commas do not split items. A string
// that is not an array literal has no items.
func forEachArrayItem(s string, fn func(item string)) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return
	}
	body := s[1 : len(s)-1]
	depth := 0
	start := 0
	emit := func(end int) {
		item := strings.TrimSpace(body[start:end])
		if item != "" && item != "..." {
			fn(item)
		}
	}
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			for i++; i < len(body); i++ {
				if body[i] == '\\' {
					i++
					continue
				}
				if body[i] == '"' {
					break
				}
			}
		case '[', '(', '{':
			depth++
		case ']', ')', '}':
			depth--
		case ',':
			if depth == 0 {
				emit(i)
				start = i + 1
			}
		}
	}
	emit(len(body))
}

// sockFamily is the decoded socket-address family.
type sockFamily uint8

const (
	afNone sockFamily = iota
	afInet
	afInet6
	afUnix
)

// sockaddr is the byte-scanned form of a socket-address struct literal.
type sockaddr struct {
	family   sockFamily
	addr     string // raw; still escaped when addrEsc
	addrEsc  bool
	abstract bool // abstract unix socket (sun_path=@"name")
	port     int
}

// parseSockaddr byte-scans a sockaddr struct literal in either dialect:
// the kernel-style strace rendering
//
//	{sa_family=AF_INET, sin_port=htons(80), sin_addr=inet_addr("1.2.3.4")}
//
// or the condensed Family/Addr/Port form some tracers emit
//
//	{Family: AF_INET, Addr: 8.8.8.8, Port: 53}
func parseSockaddr(s string) (sockaddr, bool) {
	var sa sockaddr
	if len(s) < 2 || s[0] != '{' {
		return sa, false
	}
	i := strings.Index(s, "AF_")
	if i < 0 {
		return sa, false
	}
	j := i
	for j < len(s) && (s[j] == '_' || (s[j] >= 'A' && s[j] <= 'Z') || (s[j] >= '0' && s[j] <= '9')) {
		j++
	}
	switch s[i:j] {
	case "AF_INET":
		sa.family = afInet
	case "AF_INET6":
		sa.family = afInet6
	case "AF_UNIX", "AF_LOCAL":
		sa.family = afUnix
	default:
		return sa, false
	}
	rest := s[j:]
	if sa.family == afUnix {
		var ok bool
		sa.addr, sa.addrEsc, sa.abstract, ok = unixSockPath(rest)
		return sa, ok
	}
	sa.port, _ = scanPort(rest)
	var ok bool
	sa.addr, sa.addrEsc, ok = inetSockAddr(rest)
	return sa, ok
}

// unixSockPath finds the socket path in `sun_path="/run/x.sock"`,
// `sun_path=@"abstract"` or the condensed `Addr: "/run/x.sock"`.
func unixSockPath(s string) (addr string, esc, abstract, ok bool) {
	var v string
	if i := strings.Index(s, "sun_path="); i >= 0 {
		v = s[i+len("sun_path="):]
	} else if i := strings.Index(s, "Addr:"); i >= 0 {
		v = strings.TrimLeft(s[i+len("Addr:"):], " ")
	} else {
		return "", false, false, false
	}
	if len(v) > 0 && v[0] == '@' {
		abstract = true
		v = v[1:]
	}
	if body, esc, ok := unquoteBody(v); ok {
		return body, esc, abstract, true
	}
	if t := bareToken(v); t != "" {
		return t, false, abstract, true
	}
	return "", false, false, false
}

// inetSockAddr finds the address literal in `inet_addr("1.2.3.4")`,
// `inet_pton(AF_INET6, "2001:db8::1", &sin6_addr)` or the condensed
// `Addr: 8.8.8.8` form.
func inetSockAddr(s string) (addr string, esc, ok bool) {
	if i := strings.Index(s, "inet_addr("); i >= 0 {
		return unquoteBody(s[i+len("inet_addr("):])
	}
	if i := strings.Index(s, "inet_pton("); i >= 0 {
		rest := s[i+len("inet_pton("):]
		if q := strings.IndexByte(rest, '"'); q >= 0 {
			return unquoteBody(rest[q:])
		}
	}
	if i := strings.Index(s, "Addr:"); i >= 0 {
		v := strings.TrimLeft(s[i+len("Addr:"):], " ")
		if len(v) > 0 && v[0] == '"' {
			return unquoteBody(v)
		}
		if t := bareToken(v); t != "" {
			return t, false, true
		}
	}
	return "", false, false
}

// scanPort finds the port in "htons(80)" or "Port: 53".
func scanPort(s string) (int, bool) {
	if i := strings.Index(s, "htons("); i >= 0 {
		return atoiPrefix(s[i+len("htons("):])
	}
	if i := strings.Index(s, "Port:"); i >= 0 {
		return atoiPrefix(strings.TrimLeft(s[i+len("Port:"):], " "))
	}
	return 0, false
}

// atoiPrefix parses the leading decimal digits of s.
func atoiPrefix(s string) (int, bool) {
	n, i := 0, 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		n = n*10 + int(s[i]-'0')
		i++
		if n > 1<<24 {
			return 0, false
		}
	}
	if i == 0 {
		return 0, false
	}
	return n, true
}

// bareToken takes the leading run of s up to a struct delimiter, for
// the condensed unquoted address form.
func bareToken(s string) string {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '}', ')', ' ':
			return s[:i]
		}
	}
	return s
}

// appendSockaddrSubject appends the canonical connection subject of a
// sockaddr struct literal to dst: "ip:port" for IPv4, "[addr]:port"
// for IPv6, the (unescaped) socket path for unix sockets.
func appendSockaddrSubject(dst []byte, s string) ([]byte, bool) {
	sa, ok := parseSockaddr(s)
	if !ok || sa.addr == "" {
		return dst, false
	}
	switch sa.family {
	case afUnix:
		if sa.abstract {
			dst = append(dst, '@')
		}
		if sa.addrEsc {
			dst = appendUnquoted(dst, sa.addr)
		} else {
			dst = append(dst, sa.addr...)
		}
	case afInet:
		dst = append(dst, sa.addr...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sa.port), 10)
	case afInet6:
		dst = append(dst, '[')
		dst = append(dst, sa.addr...)
		dst = append(dst, ']', ':')
		dst = strconv.AppendInt(dst, int64(sa.port), 10)
	}
	return dst, true
}

// unquoteBody strips the quotes of a C string literal, returning the
// raw body and whether it still carries backslash escapes. Anything
// after the closing quote (the "..." abbreviation marker, a trailing
// struct delimiter) is ignored, so it works on argument prefixes too.
func unquoteBody(s string) (body string, esc, ok bool) {
	if len(s) < 2 || s[0] != '"' {
		return "", false, false
	}
	b := s[1:]
	i := closingQuote(b)
	if i < 0 {
		return "", false, false
	}
	b = b[:i]
	return b, strings.IndexByte(b, '\\') >= 0, true
}

// appendUnquoted appends the unescaped bytes of a C literal body to
// dst, decoding the full strace escape set — \n \t \r \v \f \a \b,
// octal (\0 … \377), hex (\xNN) — plus the \uNNNN/\UNNNNNNNN forms Go's
// %q emits, so writer-rendered traces decode to the original bytes too.
// Unknown escapes (including \" and \\) yield the escaped byte itself.
func appendUnquoted(dst []byte, body string) []byte {
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' || i+1 >= len(body) {
			dst = append(dst, c)
			continue
		}
		i++
		switch c = body[i]; c {
		case 'n':
			dst = append(dst, '\n')
		case 't':
			dst = append(dst, '\t')
		case 'r':
			dst = append(dst, '\r')
		case 'v':
			dst = append(dst, '\v')
		case 'f':
			dst = append(dst, '\f')
		case 'a':
			dst = append(dst, '\a')
		case 'b':
			dst = append(dst, '\b')
		case '0', '1', '2', '3', '4', '5', '6', '7':
			v := int(c - '0')
			for n := 1; n < 3 && i+1 < len(body) && body[i+1] >= '0' && body[i+1] <= '7'; n++ {
				i++
				v = v*8 + int(body[i]-'0')
			}
			dst = append(dst, byte(v))
		case 'x':
			v, n := 0, 0
			for n < 2 && i+1 < len(body) && isHexDigit(body[i+1]) {
				i++
				v = v*16 + hexVal(body[i])
				n++
			}
			if n == 0 {
				dst = append(dst, 'x')
			} else {
				dst = append(dst, byte(v))
			}
		case 'u', 'U':
			want := 4
			if c == 'U' {
				want = 8
			}
			v, n := 0, 0
			for n < want && i+1 < len(body) && isHexDigit(body[i+1]) {
				i++
				v = v*16 + hexVal(body[i])
				n++
			}
			if n != want || v > utf8.MaxRune {
				// Malformed: keep the escape verbatim-ish (the marker
				// byte), matching the unknown-escape rule.
				dst = append(dst, c)
			} else {
				dst = utf8.AppendRune(dst, rune(v))
			}
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// closingQuote finds the first unescaped double quote of a literal
// body, the closing delimiter.
func closingQuote(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			return i
		}
	}
	return -1
}
