package core

// The synthetic worlds, shared with the external tests that load them as
// tables and drive the engine path (enginepath_test.go).
var (
	SyntheticGroups = syntheticGroups
	TwoPredWorld    = twoPredWorld
)
