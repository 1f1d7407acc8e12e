package index

// CheckLayouts, CheckRouting and RestoreIDs are checkLayouts,
// checkRouting and restoreIDs for this package's external tests, which
// load indexes through internal/persist (an import the package's own
// tests cannot make: persist imports index).
var (
	CheckLayouts = checkLayouts
	CheckRouting = checkRouting
	RestoreIDs   = restoreIDs
)
