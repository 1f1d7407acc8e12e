package index

// CheckLayouts is checkLayouts for this package's external tests, which
// load indexes through internal/persist (an import the package's own
// tests cannot make: persist imports index).
var CheckLayouts = checkLayouts
