package cache

// MoveToFrontStackDistances exposes the test-only reference profile to the
// external test package.
var MoveToFrontStackDistances = moveToFrontStackDistances
