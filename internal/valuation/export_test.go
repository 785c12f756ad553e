package valuation

// The generators and the reference evaluator of sparse_test.go, for the
// tests in package valuation_test: those need internal/polyio and
// datagen/telephony, which import this package.
var (
	RandomSet          = randomSet
	RandomAssignments  = randomAssignments
	ReferenceEvalBatch = referenceEvalBatch
	SameBits           = sameBits
)

// RaceEnabled is raceEnabled, for the allocation pins of package
// valuation_test.
const RaceEnabled = raceEnabled
