package shard

// Helpers of the internal tests, exported to the external shard_test
// package, which drives the remote launcher against a test sweep.
var BuildSweep = buildSweep

func NewTestRunner(samples int) UnitRunner { return testRunner{samples: samples} }
