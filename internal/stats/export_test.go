package stats

// CaseSummary names Detail.PerCase's row type for the external tests'
// naive reference.
type CaseSummary = caseSummary
