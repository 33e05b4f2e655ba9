// Package render turns Directly-Follows-Graphs, statistics and timelines
// into human-readable artifacts: Graphviz DOT documents with the node
// semantics of Figure 3a and the two coloring strategies of Section IV-C,
// plain-text DFG listings, and ASCII timeline plots in the style of
// Figure 5.
package render

import (
	"fmt"
	"strconv"
	"time"
)

// FormatBytes renders a byte count the way the paper's figures do:
// decimal units with two decimals ("0.75 KB", "14.98 KB", "825.82 MB",
// "9.66 GB").
func FormatBytes(n int64) string { return string(appendBytes(nil, n)) }

// FormatRateMBs renders a data rate in MB/s with two decimals, the fixed
// unit of the paper's "DR: <mc>x<rate> MB/s" annotations ("0.61 MB/s",
// "3175.20 MB/s").
func FormatRateMBs(bytesPerSec float64) string { return string(appendRateMBs(nil, bytesPerSec)) }

// FormatLoad renders the paper's "Load:<rd> (<bytes>)" annotation;
// activities without byte transfers omit the parenthesized part
// (Figure 8a's openat nodes show just "Load:0.55").
func FormatLoad(relDur float64, bytes int64, hasBytes bool) string {
	return string(appendLoad(nil, relDur, bytes, hasBytes))
}

// FormatDR renders the paper's "DR: <mc>x<rate>" annotation, an
// estimation of the rate at which a file access activity induces I/O load
// on the system (Equation 17).
func FormatDR(maxConc int, rate float64) string { return string(appendDR(nil, maxConc, rate)) }

// appendFixed2 appends f with two decimals, as fmt's %.2f prints it.
func appendFixed2(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', 2, 64) }

func appendBytes(b []byte, n int64) []byte {
	f := float64(n)
	switch {
	case f >= 1e12:
		return append(appendFixed2(b, f/1e12), " TB"...)
	case f >= 1e9:
		return append(appendFixed2(b, f/1e9), " GB"...)
	case f >= 1e6:
		return append(appendFixed2(b, f/1e6), " MB"...)
	case f >= 1e3:
		return append(appendFixed2(b, f/1e3), " KB"...)
	default:
		return append(strconv.AppendInt(b, n, 10), " B"...)
	}
}

func appendRateMBs(b []byte, bytesPerSec float64) []byte {
	return append(appendFixed2(b, bytesPerSec/1e6), " MB/s"...)
}

func appendLoad(b []byte, relDur float64, bytes int64, hasBytes bool) []byte {
	b = appendFixed2(append(b, "Load:"...), relDur)
	if !hasBytes {
		return b
	}
	return append(appendBytes(append(b, " ("...), bytes), ')')
}

func appendDR(b []byte, maxConc int, rate float64) []byte {
	b = strconv.AppendInt(append(b, "DR: "...), int64(maxConc), 10)
	return appendRateMBs(append(b, 'x'), rate)
}

// FormatDuration renders a duration compactly for tables (µs under 1ms,
// ms under 1s, seconds above).
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1e3)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
